import random
import shutil

import pytest

from oracles import (
    factorial_graph,
    factorial_rows,
    factorial_setup,
    gen_factorial_fixture,
    kleene_fixed_point,
    lift_factorial,
)
from wiring import closed
from wiring.closed import apply_hom, internal_hom
from wiring.csvio import load_csv_relation
from wiring.dsl import parse_script
from wiring.errors import InterfaceError, ValidationError
from wiring.recursion import RecursiveSetup, build_setup, fixed_point, step
from wiring.relations import Relation, evaluate
from wiring.stars import WiringDiagram
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain


@pytest.fixture(scope="module")
def fact_setup():
    return factorial_setup(24)


@pytest.fixture(scope="module")
def fact_script(fixtures_dir):
    return parse_script((fixtures_dir / "factorial" / "factorial.wd").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def shipped(fixtures_dir, fact_script):
    """The relations ``wd fixpoint`` reads for ``fact``, by file name: the
    shipped CSV files, loaded on the stars ``factorial.wd`` declares."""
    decls = [fact_script.relations[name] for name in fact_script.setups["fact"].rel_names]
    return {d.path: load_csv_relation(fixtures_dir / "factorial" / d.path, d.star) for d in decls}


def identity_setup(domain):
    """A 0-ary diagram soldering each ret wire to its arg wire: step is the
    identity function."""
    z = TypedStar.uniform(["a", "b"], domain)
    hom = internal_hom([z], z)
    cables = tuple(z.wires)
    wd = WiringDiagram(
        inner=(),
        outer=hom.star.star,
        cables=cables,
        inner_map={},
        outer_map={f"arg1.{w}": w for w in z.wires} | {f"ret.{w}": w for w in z.wires},
    )
    phi = TypedWiringDiagram(wd, {c: domain for c in cables})
    return z, build_setup(z, phi, [])


class TestBuildSetup:
    def test_factorial_setup_relation_is_the_conjunction(self, fact_setup):
        _z, phi, rels = lift_factorial(24)
        assert fact_setup.relation == evaluate(phi, rels)

    def test_identity_setup_steps_identically(self, bool_domain):
        z, setup = identity_setup(bool_domain)
        rel = Relation(z, [("True", "False"), ("False", "False")])
        assert step(setup, rel) == rel

    def test_empty_input_relation_collapses_setup(self):
        z, phi, (decrement, *rest) = lift_factorial(24)
        empty_setup = build_setup(z, phi, [Relation.empty(decrement.star), *rest])
        assert empty_setup.relation.is_empty
        assert step(empty_setup, Relation.complete(z)).is_empty

    def test_wrong_codomain_rejected(self, bool_domain):
        z = TypedStar.uniform(["a"], bool_domain)
        phi = TypedWiringDiagram(
            WiringDiagram((), z.star, ("a",), {}, {"a": "a"}),
            {"a": bool_domain},
        )
        with pytest.raises(InterfaceError, match="recursive star"):
            build_setup(z, phi, [])


class TestStep:
    def test_factorial_relation_is_stationary(self, fact_setup):
        fact = Relation(fact_setup.z, factorial_graph(24))
        assert step(fact_setup, fact) == fact

    def test_empty_is_stationary(self, fact_setup):
        empty = Relation.empty(fact_setup.z)
        assert step(fact_setup, empty) == empty

    def test_step_is_monotone(self, fact_setup):
        smaller = Relation(fact_setup.z, [(3, 6)])
        bigger = Relation(fact_setup.z, [(3, 6), (4, 24), (7, 7)])
        assert step(fact_setup, smaller) <= step(fact_setup, bigger)

    def test_step_equals_closing_transformation(self, fact_setup):
        candidate = Relation(fact_setup.z, [(0, 1), (1, 1), (5, 17)])
        assert step(fact_setup, candidate) == apply_hom(
            fact_setup.hom, fact_setup.relation, [candidate]
        )

    def test_steps_share_one_evaluation_diagram(self, fact_setup, monkeypatch):
        diagrams = []

        def recording_evaluate(twd, rels):
            diagrams.append(twd)
            return evaluate(twd, rels)

        monkeypatch.setattr(closed, "evaluate", recording_evaluate)
        step(fact_setup, Relation.empty(fact_setup.z))
        step(fact_setup, Relation(fact_setup.z, factorial_graph(24)))
        assert len(diagrams) == 2 and diagrams[0] is diagrams[1]
        # the cached diagram takes no part in the hom star's identity
        fresh = internal_hom([fact_setup.z], fact_setup.z)
        assert fresh == fact_setup.hom and hash(fresh) == hash(fact_setup.hom)

    def test_star_mismatch_rejected(self, fact_setup, bool_domain):
        with pytest.raises(InterfaceError):
            step(fact_setup, Relation.empty(TypedStar.uniform(["a", "b"], bool_domain)))


def test_setup_relation_is_read_by_wire_name_not_position():
    # The setup relation lives on a reordered copy of the hom star, with a
    # different domain on each wire of z.
    n = ValueDomain("N", range(3))
    t = ValueDomain("T", ["x", "y"])
    z = TypedStar(["a", "b"], {"a": n, "b": t})
    hom = internal_hom([z], z).star
    reordered = TypedStar(list(reversed(hom.wires)), hom.types)
    # (ret.b, ret.a, arg1.b, arg1.a): 0x -> 1y -> 0x and 2x -> 0x
    relation = Relation(
        reordered, [("y", 1, "x", 0), ("x", 0, "y", 1), ("x", 0, "x", 2)]
    )
    setup = RecursiveSetup(z, relation)
    assert step(setup, Relation(z, [(0, "x")])) == Relation(z, [(1, "y")])
    assert step(setup, Relation(z, [(2, "x")])) == Relation(z, [(0, "x")])
    assert fixed_point(setup).relation == Relation(z, [(0, "x"), (1, "y")])

class TestFixedPoint:
    def test_greatest_is_truncated_factorial(self, fact_setup):
        result = fixed_point(fact_setup, "greatest")
        assert set(result.relation.tuples) == factorial_graph(24)
        assert step(fact_setup, result.relation) == result.relation

    def test_least_is_empty(self, fact_setup):
        result = fixed_point(fact_setup, "least")
        assert result.relation.is_empty
        assert step(fact_setup, result.relation) == result.relation

    @pytest.mark.parametrize("limit", [1, 3, 120])
    def test_factorial_fixed_points(self, limit):
        """The greatest fixed point is the truncated factorial graph and the
        least is empty; a step leaves each where it is."""
        setup = factorial_setup(limit)
        greatest = fixed_point(setup, "greatest").relation
        least = fixed_point(setup, "least").relation
        assert set(greatest.tuples) == factorial_graph(limit)
        assert least.is_empty
        assert step(setup, greatest) == greatest
        assert step(setup, least) == least

    def test_identity_setup_greatest_is_complete(self, bool_domain):
        z, setup = identity_setup(bool_domain)
        result = fixed_point(setup, "greatest")
        assert result.relation == Relation.complete(z)
        assert result.iterations == 1

    def test_traces_are_monotone_chains(self, fact_setup):
        down = fixed_point(fact_setup, "greatest")
        for earlier, later in zip(down.trace, down.trace[1:]):
            assert later <= earlier
        up = fixed_point(fact_setup, "least")
        for earlier, later in zip(up.trace, up.trace[1:]):
            assert earlier <= later

    def test_unknown_mode_rejected(self, fact_setup):
        with pytest.raises(ValidationError):
            fixed_point(fact_setup, "sideways")

    def test_complete_relation_is_not_fixed(self, fact_setup):
        complete = Relation.complete(fact_setup.z)
        assert step(fact_setup, complete) != complete


class TestFactorialFixture:
    def test_limit_must_be_positive(self):
        # over N = {0} the conditional's B = 1 at A = 0 is outside the domain
        with pytest.raises(ValidationError, match="value 1 is outside domain 'N'"):
            factorial_setup(0)

    def test_decrement_clamps_at_zero(self, shipped):
        decrement = shipped["decrement.csv"].tuples
        assert (0, 0) in decrement
        assert (5, 4) in decrement

    def test_multiplication_is_truncated(self, shipped):
        multiplication = shipped["multiply.csv"].tuples
        assert (4, 6, 24) in multiplication
        assert all(a * b <= 24 for (a, b, _c) in multiplication)

    def test_conditional_branches_on_zero(self, shipped):
        conditional = shipped["conditional.csv"].tuples
        assert (0, 17, 1) in conditional
        assert (3, 17, 17) in conditional

    def test_shipped_csv_files_follow_the_rule(self, shipped, fact_script, fact_setup):
        """The CSV files hold ``factorial_rows(24)``'s rows, and the setup
        ``wd fixpoint`` builds from them is the one built in memory."""
        rows = {path: set(body) for path, (_header, body) in factorial_rows(24).items()}
        assert {path: set(rel.tuples) for path, rel in shipped.items()} == rows
        decl = fact_script.setups["fact"]
        phi = fact_script.diagrams[decl.diagram_name].typed
        assert build_setup(decl.z, phi, list(shipped.values())).relation == fact_setup.relation

    def test_generator_writes_the_shipped_files(self, fixtures_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(gen_factorial_fixture, "HERE", tmp_path)
        shutil.copy(fixtures_dir / "factorial" / "factorial.wd", tmp_path)
        gen_factorial_fixture.main()
        written = sorted(path.name for path in tmp_path.glob("*.csv"))
        assert written == ["conditional.csv", "decrement.csv", "multiply.csv"]
        for name in written:
            shipped_bytes = (fixtures_dir / "factorial" / name).read_bytes()
            assert (tmp_path / name).read_bytes() == shipped_bytes

    def test_limit_one(self):
        result = fixed_point(factorial_setup(1), "greatest")
        assert set(result.relation.tuples) == {(0, 1), (1, 1)}


class TestToyEnumeration:
    def test_all_fixed_points_sandwiched(self, bool_domain):
        z = TypedStar.uniform(["p", "q"], bool_domain)
        hom = internal_hom([z], z)
        import itertools
        import random

        rng = random.Random(99)
        space = list(itertools.product(*(z.domain(w).values for w in z.wires)))
        hom_space = [a + r for a in space for r in space]
        for _ in range(40):
            S = Relation(hom.star, [t for t in hom_space if rng.random() < 0.4])
            setup = RecursiveSetup(z, S)
            least = fixed_point(setup, "least").relation
            greatest = fixed_point(setup, "greatest").relation
            fixed = [
                Relation(z, combo)
                for k in range(len(space) + 1)
                for combo in itertools.combinations(space, k)
                if step(setup, Relation(z, combo)) == Relation(z, combo)
            ]
            assert least in fixed and greatest in fixed
            for rel in fixed:
                assert least <= rel <= greatest


def random_sparse_setup(rng: random.Random):
    """A setup on ``{p, q}`` whose transition graph has few edges per
    state, so it mixes long chains, dead ends and several cycles."""
    dp = ValueDomain("P", range(rng.randint(0, 6) + 1))
    dq = ValueDomain("Q", [f"v{i}" for i in range(rng.randint(1, 7))])
    z = TypedStar(["p", "q"], {"p": dp, "q": dq})
    hom = internal_hom([z], z)
    states = [(a, b) for a in dp.values for b in dq.values]
    edges = []
    for source in states:
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            target = rng.choice(states)
            edges.append(
                {"arg1.p": source[0], "arg1.q": source[1], "ret.p": target[0], "ret.q": target[1]}
            )
    tuples = (tuple(e[w] for w in hom.star.wires) for e in edges)
    return z, RecursiveSetup(z, Relation(hom.star, tuples))


class TestAgainstKleeneIteration:
    def test_random_sparse_setups(self):
        rng = random.Random(2024)
        for _ in range(300):
            z, setup = random_sparse_setup(rng)
            assert fixed_point(setup, "least").relation == kleene_fixed_point(setup, "least")
            greatest = fixed_point(setup, "greatest")
            assert greatest.relation == kleene_fixed_point(setup, "greatest")
            trace = greatest.trace
            iterate = Relation.complete(z)
            for entry in trace:
                iterate = step(setup, iterate)
                assert entry == iterate
            assert trace[-1] is trace[-2]
            assert all(a != b for a, b in zip(trace[:-2], trace[1:-1]))


def assert_pruned_partition_the_first_iterate(result):
    """The pruned sets are pairwise disjoint and disjoint from the fixed
    point, and with it they make up the first iterate."""
    kept = result.relation.tuples
    seen = set(kept)
    for dropped in result.pruned:
        assert dropped and seen.isdisjoint(dropped)
        seen |= dropped
    assert seen == result.trace[0].tuples


class TestPrunedStates:
    def test_random_sparse_setups(self):
        rng = random.Random(2025)
        for _ in range(300):
            _z, setup = random_sparse_setup(rng)
            assert_pruned_partition_the_first_iterate(fixed_point(setup, "greatest"))
            assert fixed_point(setup, "least").pruned == ()

    def test_factorial_keeps_the_first_iterate_once(self):
        result = fixed_point(factorial_setup(400), "greatest")
        assert_pruned_partition_the_first_iterate(result)
        stored = len(result.relation) + sum(map(len, result.pruned))
        assert stored <= 2_869
        # the chain it stands for holds thirty times as many tuples
        assert sum(len(r) for r in result.trace) == 85_554
        assert result.iterations == 401
