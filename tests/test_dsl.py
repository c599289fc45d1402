import pytest

from wiring.dsl import format_script, parse_query_text, parse_script
from wiring.errors import ScriptError
from wiring.recursion import factorial_fixture
from wiring.typed import typed_diagrams_equal

NAND_SCRIPT = """
type Bool = {True, False};
star NAND(A:Bool, B:Bool, out:Bool);
star IO(in:Bool, out:Bool);
rel nand : NAND from "nand.csv";
diagram notgate(NAND) -> IO {
  cable cin : Bool;
  cable cout : Bool;
  solder inner1.A -> cin;
  solder inner1.B -> cin;
  solder inner1.out -> cout;
  solder out.in -> cin;
  solder out.out -> cout;
}
query notq = SELECT n.A, n.out FROM nand n WHERE n.A = n.B;
query andq = SELECT n1.A, n1.B, n2.out FROM nand n1, nand n2
  WHERE n1.out = n2.A AND n1.out = n2.B;
query buf = SELECT n1.A, n2.out FROM nand n1, nand n2
  WHERE n1.A = n1.B AND n1.out = n2.A AND n1.out = n2.B;
union gates = notq | buf;
"""

FACTORIAL_SCRIPT = """
type N = range 0..12;
star F(A:N, B:N);
star DEC(A:N, A':N);
star MUL(A:N, B':N, C:N);
star BRANCH(A:N, C:N, B:N);
rel dec : DEC from "d.csv";
rel mul : MUL from "m.csv";
rel cond : BRANCH from "c.csv";
diagram factstep(DEC, MUL, BRANCH) -> [F => F] {
  cable A : N;
  cable A' : N;
  cable B : N;
  cable B' : N;
  cable C : N;
  solder inner1.A -> A;
  solder inner1.A' -> A';
  solder inner2.A -> A;
  solder inner2.B' -> B';
  solder inner2.C -> C;
  solder inner3.A -> A;
  solder inner3.C -> C;
  solder inner3.B -> B;
  solder out.ret.A -> A;
  solder out.ret.B -> B;
  solder out.arg1.A -> A';
  solder out.arg1.B -> B';
}
setup fact = factstep(dec, mul, cond);
"""


class TestParsing:
    def test_empty_script(self):
        script = parse_script("")
        assert script.decls == ()
        assert format_script(script) == ""

    def test_comments_and_keyword_case(self):
        script = parse_script(
            "# a comment\ntype T = {a};\nstar S(w:T);\nrel r : S from \"x.csv\";\n"
            "query q = select s.w from r s;  # trailing\n"
        )
        assert list(script.queries) == ["q"]

    def test_full_script_resolves(self):
        script = parse_script(NAND_SCRIPT)
        assert set(script.stars) == {"NAND", "IO"}
        assert script.diagrams["notgate"].typed.arity == 1
        assert script.unions["gates"].parts == ("notq", "buf")

    def test_primes_in_identifiers(self):
        script = parse_script(FACTORIAL_SCRIPT)
        assert "A'" in script.stars["DEC"].star

    def test_factorial_script_matches_fixture_diagram(self):
        script = parse_script(FACTORIAL_SCRIPT)
        fixture = factorial_fixture(12)
        assert typed_diagrams_equal(script.diagrams["factstep"].typed, fixture.phi)
        assert script.setups["fact"].z == fixture.z


class TestErrors:
    def test_unknown_star_reference_names_it(self):
        with pytest.raises(ScriptError, match="GHOST"):
            parse_script("type T = {a};\nrel r : GHOST from \"x.csv\";\n")

    def test_error_carries_position(self):
        with pytest.raises(ScriptError) as err:
            parse_script("type T = {a};\nstar S(w:T;\n")
        assert err.value.line == 2

    def test_declaration_before_use(self):
        with pytest.raises(ScriptError, match="unknown type"):
            parse_script("star S(w:T);\ntype T = {a};\n")

    def test_duplicate_names_per_kind(self):
        with pytest.raises(ScriptError, match="duplicate type"):
            parse_script("type T = {a};\ntype T = {b};\n")

    def test_duplicate_value_rejected(self):
        with pytest.raises(ScriptError, match="repeats a value"):
            parse_script("type T = {a, a};\n")

    def test_unsoldered_wire_reported(self):
        with pytest.raises(ScriptError, match="not soldered"):
            parse_script(
                "type T = {a};\nstar S(w:T);\n"
                "diagram d(S) -> S { cable c : T;\n solder out.w -> c;\n }\n"
            )

    def test_unknown_cable_in_solder(self):
        with pytest.raises(ScriptError, match="unknown cable"):
            parse_script(
                "type T = {a};\nstar S(w:T);\n"
                "diagram d(S) -> S { solder inner1.w -> ghost;\n }\n"
            )

    def test_bad_inner_index(self):
        with pytest.raises(ScriptError, match="inner7"):
            parse_script(
                "type T = {a};\nstar S(w:T);\n"
                "diagram d(S) -> S { cable c : T;\n solder inner7.w -> c;\n }\n"
            )

    @pytest.mark.parametrize(
        "solders, endpoint",
        [
            ("solder inner1.w -> c;\n  solder inner1.w -> e;\n solder out.w -> c;", "inner1.w"),
            ("solder out.w -> c;\n  solder out.w -> e;\n solder inner1.w -> c;", "out.w"),
        ],
        ids=["inner", "outer"],
    )
    def test_wire_soldered_twice(self, solders, endpoint):
        with pytest.raises(ScriptError, match=f"{endpoint} is already soldered") as err:
            parse_script(
                "type T = {a};\nstar S(w:T);\n"
                f"diagram d(S) -> S {{ cable c : T;\n cable e : T;\n {solders}\n }}\n"
            )
        assert (err.value.line, err.value.column) == (6, 10)

    def test_const_outside_domain(self):
        with pytest.raises(ScriptError, match="outside type"):
            parse_script("type T = {a};\nconst k : T = b;\n")

    def test_query_with_unknown_alias(self):
        with pytest.raises(ScriptError, match="unknown alias"):
            parse_script(
                "type T = {a};\nstar S(w:T);\nrel r : S from \"x.csv\";\n"
                "query q = SELECT z.w FROM r s;\n"
            )

    def test_union_needs_known_results(self):
        with pytest.raises(ScriptError, match="ghost"):
            parse_script(
                "type T = {a};\nstar S(w:T);\nrel r : S from \"x.csv\";\n"
                "query q = SELECT s.w FROM r s;\nunion u = q | ghost;\n"
            )

    def test_union_parts_must_share_shape(self):
        message = r"'q2' gives \(y:N\) but 'q1' gives \(x:T\)"
        with pytest.raises(ScriptError, match=message) as err:
            parse_script(
                "type T = {a};\ntype N = range 0..3;\nstar R(x:T);\nstar S(y:N);\n"
                "rel r : R from \"r.csv\";\nrel s : S from \"s.csv\";\n"
                "query q1 = SELECT a.x FROM r a;\nquery q2 = SELECT b.y FROM s b;\n"
                "union u = q1 | q2;\n"
            )
        assert (err.value.line, err.value.column) == (9, 16)

    @pytest.mark.parametrize("literal", ["'1'", "'a,b'", "''", "' a'"])
    def test_type_value_must_read_back_from_csv(self, literal):
        with pytest.raises(ScriptError, match="read back") as err:
            parse_script(f"type T = {{a, {literal}}};\n")
        assert (err.value.line, err.value.column) == (1, 14)

    def test_setup_requires_recursive_codomain(self):
        with pytest.raises(ScriptError, match="Z => Z"):
            parse_script(
                "type T = {a};\nstar S(w:T);\nrel r : S from \"x.csv\";\n"
                "diagram d(S) -> S { cable c : T;\n"
                " solder inner1.w -> c;\n solder out.w -> c;\n }\n"
                "setup s = d(r);\n"
            )

    def test_lexical_error_position(self):
        with pytest.raises(ScriptError) as err:
            parse_script("type T = {a};\n$\n")
        assert err.value.line == 2


class TestRoundTrip:
    def test_print_then_parse_is_stable(self):
        for text in (NAND_SCRIPT, FACTORIAL_SCRIPT):
            script = parse_script(text)
            printed = format_script(script)
            reparsed = parse_script(printed)
            assert format_script(reparsed) == printed
            assert list(reparsed.queries) == list(script.queries)
            assert list(reparsed.domains) == list(script.domains)
            for name, decl in script.diagrams.items():
                assert typed_diagrams_equal(
                    reparsed.diagrams[name].typed, decl.typed
                )


class TestInlineQuery:
    def test_parse_query_text(self):
        script = parse_script(NAND_SCRIPT)
        q = parse_query_text("SELECT n.out FROM nand n WHERE n.A = 'True'", script)
        assert q.conditions[0].literal == "True"

    def test_trailing_garbage_rejected(self):
        script = parse_script(NAND_SCRIPT)
        with pytest.raises(ScriptError, match="trailing"):
            parse_query_text("SELECT n.out FROM nand n extra", script)
