import random

import pytest

from oracles import factorial_graph, kleene_fixed_point
from wiring import closed
from wiring.closed import apply_hom, internal_hom
from wiring.errors import InterfaceError, ValidationError
from wiring.recursion import (
    RecursiveSetup,
    build_setup,
    factorial_fixture,
    fixed_point,
    is_fixed_point,
    step,
)
from wiring.relations import Relation, evaluate
from wiring.stars import WiringDiagram
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain


@pytest.fixture(scope="module")
def small_fixture():
    return factorial_fixture(24)


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
    def test_factorial_setup_relation_is_the_conjunction(self, small_fixture):
        fx = small_fixture
        direct = evaluate(fx.phi, [fx.decrement, fx.multiplication, fx.conditional])
        assert fx.setup.relation == direct

    def test_identity_setup_steps_identically(self, bool_domain):
        z, setup = identity_setup(bool_domain)
        rel = Relation(z, [("True", "False"), ("False", "False")])
        assert step(setup, rel) == rel

    def test_empty_input_relation_collapses_setup(self, small_fixture):
        fx = small_fixture
        empty_setup = build_setup(
            fx.z, fx.phi, [Relation.empty(fx.decrement.star), fx.multiplication, fx.conditional]
        )
        assert empty_setup.relation.is_empty
        assert step(empty_setup, Relation.complete(fx.z)).is_empty

    def test_wrong_codomain_rejected(self, bool_domain):
        z = TypedStar.uniform(["a"], bool_domain)
        phi = TypedWiringDiagram(
            WiringDiagram((), z.star, ("a",), {}, {"a": "a"}),
            {"a": bool_domain},
        )
        with pytest.raises(InterfaceError, match="recursive star"):
            build_setup(z, phi, [])


class TestStep:
    def test_factorial_relation_is_stationary(self, small_fixture):
        fx = small_fixture
        fact = Relation(fx.z, factorial_graph(24))
        assert step(fx.setup, fact) == fact

    def test_empty_is_stationary(self, small_fixture):
        empty = Relation.empty(small_fixture.z)
        assert step(small_fixture.setup, empty) == empty

    def test_step_is_monotone(self, small_fixture):
        fx = small_fixture
        smaller = Relation(fx.z, [(3, 6)])
        bigger = Relation(fx.z, [(3, 6), (4, 24), (7, 7)])
        assert step(fx.setup, smaller) <= step(fx.setup, bigger)

    def test_step_equals_closing_transformation(self, small_fixture):
        fx = small_fixture
        candidate = Relation(fx.z, [(0, 1), (1, 1), (5, 17)])
        assert step(fx.setup, candidate) == apply_hom(
            fx.setup.hom, fx.setup.relation, [candidate]
        )

    def test_steps_share_one_evaluation_diagram(self, small_fixture, monkeypatch):
        fx = small_fixture
        diagrams = []

        def recording_evaluate(twd, rels):
            diagrams.append(twd)
            return evaluate(twd, rels)

        monkeypatch.setattr(closed, "evaluate", recording_evaluate)
        step(fx.setup, Relation.empty(fx.z))
        step(fx.setup, Relation(fx.z, factorial_graph(24)))
        assert len(diagrams) == 2 and diagrams[0] is diagrams[1]
        # the cached diagram takes no part in the hom star's identity
        fresh = internal_hom([fx.z], fx.z)
        assert fresh == fx.setup.hom and hash(fresh) == hash(fx.setup.hom)

    def test_star_mismatch_rejected(self, small_fixture, bool_domain):
        with pytest.raises(InterfaceError):
            step(small_fixture.setup, Relation.empty(TypedStar.uniform(["a", "b"], bool_domain)))


def test_setup_relation_is_read_by_wire_name_not_position():
    # The setup relation lives on a reordered copy of the hom star, with a
    # different domain on each wire of z.
    n = ValueDomain.int_range("N", 0, 2)
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
    def test_greatest_is_truncated_factorial(self, small_fixture):
        result = fixed_point(small_fixture.setup, "greatest")
        assert set(result.relation.tuples) == factorial_graph(24)
        assert is_fixed_point(small_fixture.setup, result.relation)

    def test_least_is_empty(self, small_fixture):
        result = fixed_point(small_fixture.setup, "least")
        assert result.relation.is_empty
        assert is_fixed_point(small_fixture.setup, result.relation)

    def test_identity_setup_greatest_is_complete(self, bool_domain):
        z, setup = identity_setup(bool_domain)
        result = fixed_point(setup, "greatest")
        assert result.relation == Relation.complete(z)
        assert result.iterations == 1

    def test_traces_are_monotone_chains(self, small_fixture):
        down = fixed_point(small_fixture.setup, "greatest")
        for earlier, later in zip(down.trace, down.trace[1:]):
            assert later <= earlier
        up = fixed_point(small_fixture.setup, "least")
        for earlier, later in zip(up.trace, up.trace[1:]):
            assert earlier <= later

    def test_unknown_mode_rejected(self, small_fixture):
        with pytest.raises(ValidationError):
            fixed_point(small_fixture.setup, "sideways")

    def test_complete_relation_is_not_fixed(self, small_fixture):
        complete = Relation.complete(small_fixture.z)
        assert not is_fixed_point(small_fixture.setup, complete)


class TestFactorialFixture:
    def test_limit_must_be_positive(self):
        with pytest.raises(ValidationError):
            factorial_fixture(0)

    def test_decrement_clamps_at_zero(self, small_fixture):
        assert (0, 0) in small_fixture.decrement.tuples
        assert (5, 4) in small_fixture.decrement.tuples

    def test_multiplication_is_truncated(self, small_fixture):
        assert (4, 6, 24) in small_fixture.multiplication.tuples
        assert all(a * b <= 24 for (a, b, _c) in small_fixture.multiplication.tuples)

    def test_conditional_branches_on_zero(self, small_fixture):
        assert (0, 17, 1) in small_fixture.conditional.tuples
        assert (3, 17, 17) in small_fixture.conditional.tuples

    def test_limit_one(self):
        fx = factorial_fixture(1)
        result = fixed_point(fx.setup, "greatest")
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
                if is_fixed_point(setup, Relation(z, combo))
            ]
            assert least in fixed and greatest in fixed
            for rel in fixed:
                assert least <= rel <= greatest


def random_sparse_setup(rng: random.Random):
    """A setup on ``{p, q}`` whose transition graph has few edges per
    state, so it mixes long chains, dead ends and several cycles."""
    dp = ValueDomain.int_range("P", 0, rng.randint(0, 6))
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
        result = fixed_point(factorial_fixture(400).setup, "greatest")
        assert_pruned_partition_the_first_iterate(result)
        stored = len(result.relation) + sum(map(len, result.pruned))
        assert stored <= 2_869
        # the chain it stands for holds thirty times as many tuples
        assert sum(len(r) for r in result.trace) == 85_554
        assert result.iterations == 401
