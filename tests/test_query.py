import csv
import random

import pytest

from oracles import sql_oracle
from wiring.csvio import load_csv_relation
from wiring.dsl import parse_script, parse_select_text, resolve_query_text
from wiring.errors import ScriptError
from wiring.query import (
    AttrRef,
    CONST_WIRE,
    Condition,
    ConjunctiveQuery,
    compile_query,
    evaluate_query,
)
from wiring.relations import Relation
from wiring.stars import Star, WiringDiagram
from wiring.typed import TypedWiringDiagram, typed_diagrams_equal

WIKI_SCRIPT = """
type STUDENT = {ann, ben, cleo, dan};
type COURSE = {math, art};
type GENDER = {male, female};
type ADDRESS = {a1, a2, a3, a4};
star ATTENDS(student:STUDENT, course:COURSE);
star GENDERS(student:STUDENT, gender:GENDER);
star LIVES(student:STUDENT, address:ADDRESS);
rel attends : ATTENDS from "attends.csv";
rel gender : GENDERS from "gender.csv";
rel lives : LIVES from "lives.csv";
query shared = SELECT L.student, L.address
  FROM attends a1, gender g1, attends a2, gender g2, lives L
  WHERE a1.student = g1.student AND a2.student = g2.student
    AND L.student = g1.student AND a1.course = a2.course
    AND g1.gender = 'male' AND g2.gender = 'female';
"""


@pytest.fixture(scope="module")
def wiki():
    script = parse_script(WIKI_SCRIPT)
    students = ("ann", "ben", "cleo", "dan")
    rows = {
        "attends": [
            {"student": "ann", "course": "math"},
            {"student": "ben", "course": "math"},
            {"student": "cleo", "course": "art"},
            {"student": "dan", "course": "art"},
            {"student": "dan", "course": "math"},
        ],
        "gender": [
            {"student": "ann", "gender": "female"},
            {"student": "ben", "gender": "male"},
            {"student": "cleo", "gender": "female"},
            {"student": "dan", "gender": "male"},
        ],
        "lives": [
            {"student": s, "address": f"a{i + 1}"} for i, s in enumerate(students)
        ],
    }
    relations = {}
    for name, decl in script.relations.items():
        star = decl.star
        relations[name] = Relation(
            star, [tuple(row[w] for w in star.wires) for row in rows[name]]
        )
    return script, rows, relations


class TestWikiQuery:
    def test_compiles_to_expected_cospan(self, wiki):
        script, _rows, _relations = wiki
        compiled = compile_query(script.queries["shared"], script)
        twd = compiled.diagram
        assert twd.arity == 7  # five tables plus two constants
        assert len(twd.diagram.cables) == 6
        assert compiled.inputs == ("attends", "gender", "attends", "gender", "lives")
        assert [sorted(r.tuples) for r in compiled.literal_relations] == [
            [("male",)],
            [("female",)],
        ]

        # hand-encoded expected diagram: cables are the equality classes
        student = script.domains["STUDENT"]
        course = script.domains["COURSE"]
        gender = script.domains["GENDER"]
        address = script.domains["ADDRESS"]
        attends = script.stars["ATTENDS"]
        genders = script.stars["GENDERS"]
        lives = script.stars["LIVES"]
        const = Star((CONST_WIRE,))
        cable_types = {
            "s1": student,  # a1.student ~ g1.student ~ L.student
            "crs": course,  # a1.course ~ a2.course
            "gen1": gender,  # g1.gender ~ 'male'
            "s2": student,  # a2.student ~ g2.student
            "gen2": gender,  # g2.gender ~ 'female'
            "addr": address,  # L.address
        }
        wd = WiringDiagram(
            inner=(attends.star, genders.star, attends.star, genders.star,
                   lives.star, const, const),
            outer=Star(("student", "address")),
            cables=tuple(cable_types),
            inner_map={
                (0, "student"): "s1",
                (0, "course"): "crs",
                (1, "student"): "s1",
                (1, "gender"): "gen1",
                (2, "student"): "s2",
                (2, "course"): "crs",
                (3, "student"): "s2",
                (3, "gender"): "gen2",
                (4, "student"): "s1",
                (4, "address"): "addr",
                (5, CONST_WIRE): "gen1",
                (6, CONST_WIRE): "gen2",
            },
            outer_map={"student": "s1", "address": "addr"},
        )
        expected = TypedWiringDiagram(wd, cable_types)
        assert typed_diagrams_equal(twd, expected)

    def test_matches_nested_loop_oracle(self, wiki):
        script, rows, relations = wiki
        query = script.queries["shared"]
        compiled = compile_query(query, script)
        got = evaluate_query(compiled, relations)
        expected = sql_oracle(query, rows)
        assert got.aligned_tuples(("student", "address")) == frozenset(expected)
        assert frozenset(expected) == {("ben", "a2"), ("dan", "a4")}


class TestCompileBasics:
    @pytest.fixture()
    def toy(self):
        return parse_script(
            "type T = {x, y, z};\n"
            "star P(a:T, b:T);\n"
            "star Q(b:T, c:T);\n"
            "rel p : P from \"p.csv\";\n"
            "rel q : Q from \"q.csv\";\n"
            "const kx : T = x;\n"
        )

    def test_projection_without_where(self, toy):
        query = ConjunctiveQuery(
            (AttrRef("u", "a"),), (("p", "u"),), ()
        )
        compiled = compile_query(query, toy)
        assert compiled.diagram.arity == 1
        assert len(compiled.diagram.diagram.cables) == 2
        rel = Relation(toy.stars["P"], [("x", "y"), ("y", "y")])
        out = evaluate_query(compiled, {"p": rel})
        assert out.aligned_tuples(("a",)) == {("x",), ("y",)}

    def test_output_name_collision_is_qualified(self, toy):
        query = ConjunctiveQuery(
            (AttrRef("u", "b"), AttrRef("v", "b")),
            (("p", "u"), ("q", "v")),
            (),
        )
        compiled = compile_query(query, toy)
        assert compiled.diagram.outer.wires == ("u_b", "v_b")

    def test_duplicate_select_rejected(self, toy):
        query = ConjunctiveQuery(
            (AttrRef("u", "a"), AttrRef("u", "a")), (("p", "u"),), ()
        )
        with pytest.raises(ScriptError, match="repeats"):
            compile_query(query, toy)

    def test_consts_can_be_from_targets(self, toy):
        query = ConjunctiveQuery(
            (AttrRef("u", "a"),),
            (("p", "u"), ("kx", "k")),
            (Condition(AttrRef("u", "b"), right=AttrRef("k", CONST_WIRE)),),
        )
        compiled = compile_query(query, toy)
        rel = Relation(toy.stars["P"], [("z", "x"), ("y", "y")])
        out = evaluate_query(compiled, {"p": rel, "kx": toy.consts["kx"]})
        assert out.aligned_tuples(("a",)) == {("z",)}

    def test_mixed_domain_equality_rejected(self):
        script = parse_script(
            "type T = {x};\ntype U = {x};\n"
            "star P(a:T, b:U);\n"
            "rel p : P from \"p.csv\";\n"
        )
        query = ConjunctiveQuery(
            (AttrRef("u", "a"),),
            (("p", "u"),),
            (Condition(AttrRef("u", "a"), right=AttrRef("u", "b")),),
        )
        with pytest.raises(ScriptError, match="cannot equate"):
            compile_query(query, script)

    def test_literal_outside_domain_rejected(self, toy):
        query = ConjunctiveQuery(
            (AttrRef("u", "a"),),
            (("p", "u"),),
            (Condition(AttrRef("u", "a"), literal="nope"),),
        )
        with pytest.raises(ScriptError, match="outside domain"):
            compile_query(query, toy)


class TestRandomQueriesAgainstOracle:
    def test_random_instances(self):
        rng = random.Random(123)
        dom_values = ("r", "s", "t")
        script = parse_script(
            "type T = {r, s, t};\n"
            "star P(a:T, b:T);\n"
            "star Q(c:T, d:T, e:T);\n"
            "rel p : P from \"p.csv\";\n"
            "rel q : Q from \"q.csv\";\n"
        )
        stars = {"p": script.stars["P"], "q": script.stars["Q"]}
        for _ in range(120):
            tables = {}
            rows = {}
            for name, star in stars.items():
                data = [
                    tuple(rng.choice(dom_values) for _ in star.wires)
                    for _ in range(rng.randint(0, 6))
                ]
                tables[name] = Relation(star, data)
                rows[name] = [dict(zip(star.wires, t)) for t in set(data)]
            n_tables = rng.randint(1, 3)
            froms = tuple(
                (rng.choice(list(stars)), f"t{i}") for i in range(n_tables)
            )
            refs = [
                AttrRef(alias, attr)
                for pred, alias in froms
                for attr in stars[pred].wires
            ]
            select = tuple(
                rng.choice(refs) for _ in range(rng.randint(1, 2))
            )
            try:
                names = [r.attr if sum(1 for s in select if s.attr == r.attr) == 1
                         else f"{r.alias}_{r.attr}" for r in select]
                if len(set(names)) != len(names):
                    continue
            except Exception:
                continue
            conds = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.3:
                    conds.append(
                        Condition(rng.choice(refs), literal=rng.choice(dom_values))
                    )
                else:
                    conds.append(
                        Condition(rng.choice(refs), right=rng.choice(refs))
                    )
            query = ConjunctiveQuery(select, froms, tuple(conds))
            compiled = compile_query(query, script)
            got = evaluate_query(compiled, tables)
            expected = sql_oracle(query, rows)
            key = tuple(compiled.diagram.outer.wires)
            assert got.aligned_tuples(key) == frozenset(expected), query


class TestCyclicQueriesAgainstOracle:
    def test_random_triangles(self, generic_calls):
        rng = random.Random(29)
        script = parse_script(
            "type V = range 0..5;\n"
            "star E(x:V, y:V);\n"
            + "".join(f'rel {name} : E from "{name}.csv";\n' for name in "rst")
            + "query tri = SELECT a.x, b.x, c.x FROM r a, s b, t c "
            "WHERE a.y = b.x AND b.y = c.x AND c.y = a.x;\n"
        )
        query = script.queries["tri"]
        compiled = compile_query(query, script)
        star = script.stars["E"]
        for _ in range(30):
            tables, rows = {}, {}
            for name in "rst":
                data = {(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 20))}
                tables[name] = Relation(star, data)
                rows[name] = [{"x": x, "y": y} for x, y in data]
            generic_calls.clear()
            got = evaluate_query(compiled, tables)
            assert len(generic_calls) == 1 and generic_calls[0] is not None
            key = tuple(compiled.diagram.outer.wires)
            assert got.aligned_tuples(key) == frozenset(sql_oracle(query, rows))

    def test_four_cycle_on_the_wiki_fixture(self, fixtures_dir, generic_calls):
        base = fixtures_dir / "wiki"
        script = parse_script((base / "wiki.wd").read_text())
        relations, rows = {}, {}
        for name, decl in script.relations.items():
            relations[name] = load_csv_relation(str(base / decl.path), decl.star)
            with open(base / decl.path, newline="") as handle:
                rows[name] = list(csv.DictReader(handle))
        text = (
            "SELECT a1.student, a3.student "
            "FROM attends a1, attends a2, attends a3, attends a4 "
            "WHERE a1.course = a2.course AND a2.student = a3.student "
            "AND a3.course = a4.course AND a4.student = a1.student"
        )
        query = resolve_query_text(text, parse_select_text(text), script)
        compiled = compile_query(query, script)
        got = evaluate_query(compiled, relations)
        assert len(generic_calls) == 1 and generic_calls[0] is not None
        expected = sql_oracle(query, rows)
        assert got.aligned_tuples(("a1_student", "a3_student")) == frozenset(expected)
        assert len(expected) == 62
