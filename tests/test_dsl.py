import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiring.csvio import survives_csv
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

    @pytest.mark.parametrize(
        "first, second, position",
        [
            ('rel x : S from "x.csv";', "const x : T = a;", (4, 7)),
            ("const x : T = a;", 'rel x : S from "x.csv";', (4, 5)),
        ],
        ids=["rel-then-const", "const-then-rel"],
    )
    def test_rel_and_const_share_one_name_space(self, first, second, position):
        with pytest.raises(ScriptError, match="duplicate rel/const name 'x'") as err:
            parse_script(f"type T = {{a, b}};\nstar S(value:T);\n{first}\n{second}\n")
        assert (err.value.line, err.value.column) == position


# Script prefixes for the malformed scripts below.
_STAR = "type T = {a, b};\nstar S(w:T);\n"
_REL = _STAR + 'rel r : S from "r.csv";\n'
_OPEN_DIAGRAM = _REL + "diagram d(S) -> S {\n cable c : T;\n"
_TWO_SHAPES = (
    'type T = {a};\ntype N = range 0..3;\nstar A(x:T);\nstar B(y:N);\n'
    'rel ra : A from "a.csv";\nrel rb : B from "b.csv";\n'
    "query q1 = SELECT s.x FROM ra s;\nquery q2 = SELECT s.y FROM rb s;\n"
)
_HOM_DIAGRAM = _REL + (
    "diagram h(S) -> [S => S] {\n cable c : T;\n cable e : T;\n solder inner1.w -> c;\n"
    " solder out.arg1.w -> c;\n solder out.ret.w -> e;\n}\n"
)
ERROR_SCRIPTS = [
    ("bad-character", "type T = {a};\n  $\n", "2:3: unexpected character '$'"),
    ("unterminated-string", _STAR + 'rel r : S from "r.csv;\n',
     '3:16: unexpected character \'"\''),
    ("missing-semicolon-at-eof", "type T = {a}\n", "2:1: expected ';', found 'end of file'"),
    ("expect-punct", "type T {a};\n", "1:8: expected '=', found '{'"),
    ("expect-keyword", _STAR + 'rel r : S form "r.csv";\n', "3:11: expected 'from', found 'form'"),
    ("expect-string", _STAR + "rel r : S from r.csv;\n", "3:16: expected 'string', found 'r'"),
    ("ident", "type = {a};\n", "1:6: expected type name, found '='"),
    ("ident-at-eof", "star", "1:5: expected star name, found 'end of file'"),
    ("literal", "type T = {a, ;};\n", "1:14: expected a literal value, found ';'"),
    ("literal-at-eof", "type T = {a,", "1:13: expected a literal value, found ''"),
    ("duplicate-type", "type T = {a};\ntype T = {b};\n", "2:6: duplicate type name 'T'"),
    ("unknown-type", "star S(w:U);\n", "1:10: unknown type 'U'"),
    ("unknown-star", 'type T = {a};\nrel r : GHOST from "r.csv";\n', "2:9: unknown star 'GHOST'"),
    ("not-a-declaration", "type T = {a};\n;\n", '2:1: expected a declaration'),
    ("unknown-declaration", "table T = {a};\n", "1:1: unknown declaration 'table'"),
    ("empty-range", "type N = range 3..1;\n", '1:16: empty range 3..1'),
    ("range-needs-int", "type N = range a..1;\n", "1:16: expected 'int', found 'a'"),
    ("value-not-csv-safe", "type T = {a, '1'};\n",
     "1:14: type 'T': value '1' would not read back from CSV unchanged"),
    ("repeated-value", "type T = {a, b, a};\n", "1:17: type 'T' repeats a value"),
    ("missing-comma-in-type", "type T = {a b};\n", "1:13: expected ',', found 'b'"),
    ("duplicate-wire", "type T = {a};\nstar S(w:T, w:T);\n", "2:6: duplicate wire name 'w'"),
    ("missing-colon-in-star", "type T = {a};\nstar S(w T);\n", "2:10: expected ':', found 'T'"),
    ("query-keyword-is-no-wire", "type T = {a};\nstar E(v:T, From:T);\n",
     "2:13: expected wire name, found 'From'"),
    ("query-keyword-is-no-rel", _STAR + 'rel select : S from "r.csv";\n',
     "3:5: expected relation name, found 'select'"),
    ("query-keyword-is-no-const", "type T = {a};\nconst AND : T = a;\n",
     "2:7: expected constant name, found 'AND'"),
    ("const-outside-type", "type T = {a};\nconst k : T = b;\n",
     "2:15: constant 'b' is outside type 'T'"),
    ("const-unknown-type", "const k : T = b;\n", "1:11: unknown type 'T'"),
    ("duplicate-cable", _OPEN_DIAGRAM + " cable c : T;\n}\n", "6:8: duplicate cable 'c'"),
    ("endpoint-needs-wire", _OPEN_DIAGRAM + " solder out -> c;\n}\n",
     '6:13: solder endpoint needs a wire, like inner1.w or out.w'),
    ("unknown-cable", _OPEN_DIAGRAM + " solder out.w -> ghost;\n}\n",
     "6:18: unknown cable 'ghost'"),
    ("outer-wire-unknown", _OPEN_DIAGRAM + " solder out.v -> c;\n}\n",
     "6:9: outer star has no wire 'v'"),
    ("endpoint-head", _OPEN_DIAGRAM + " solder foo.w -> c;\n}\n",
     "6:9: endpoint must start with 'out' or 'inner<k>', got 'foo'"),
    ("inner-index", _OPEN_DIAGRAM + " solder inner7.w -> c;\n}\n",
     "6:9: no inner star 'inner7' (diagram has 1)"),
    ("inner-wire-unknown", _OPEN_DIAGRAM + " solder inner1.v -> c;\n}\n",
     "6:9: inner star 1 has no wire 'v'"),
    ("soldered-twice",
     _OPEN_DIAGRAM + " cable e : T;\n solder out.w -> c;\n\tsolder out.w -> e;\n}\n",
     "8:9: out.w is already soldered to cable 'c'"),
    ("cable-or-solder", _OPEN_DIAGRAM + " wire e : T;\n}\n", "6:2: expected 'cable' or 'solder'"),
    ("cable-or-solder-at-eof", _OPEN_DIAGRAM, "6:1: expected 'cable' or 'solder'"),
    ("unsoldered-wire", _OPEN_DIAGRAM + " solder out.w -> c;\n}\n",
     "4:9: diagram 'd': inner wire 'w' of star 0 is not soldered"),
    ("cable-type-mismatch",
     _REL + "type U = {x};\ndiagram d(S) -> S {\n cable c : U;\n"
     " solder inner1.w -> c;\n solder out.w -> c;\n}\n",
     "5:9: diagram 'd': wire 'w' of inner star 0 has domain 'T' but its cable 'c' has 'U'"),
    ("outer-cable-type-mismatch",
     _REL + "type U = {x};\ndiagram d(S) -> S {\n cable c : T;\n cable e : U;\n"
     " solder inner1.w -> c;\n solder out.w -> e;\n}\n",
     "5:9: diagram 'd': outer wire 'w' has domain 'T' but its cable 'e' has 'U'"),
    ("codomain-unknown-star", _REL + "diagram d(S) -> GHOST {}\n", "4:17: unknown star 'GHOST'"),
    ("codomain-unknown-argument", _REL + "diagram d(S) -> [S, GHOST => S] {}\n",
     "4:21: unknown star 'GHOST'"),
    ("codomain-needs-darrow", _REL + "diagram d(S) -> [S, S S] {}\n",
     "4:23: expected 'darrow', found 'S'"),
    ("codomain-needs-bracket", _REL + "diagram d(S) -> [S => S {}\n",
     "4:25: expected ']', found '{'"),
    ("inner-unknown-star", _REL + "diagram d(S, GHOST) -> S {}\n", "4:14: unknown star 'GHOST'"),
    ("diagram-needs-arrow", _REL + "diagram d(S) S {}\n", "4:14: expected 'arrow', found 'S'"),
    ("query-unknown-alias", _REL + "query q = SELECT z.w FROM r s;\n",
     "4:7: query 'q': reference z.w names unknown alias 'z'"),
    ("query-unknown-predicate", _REL + "query q = SELECT s.w FROM ghost s;\n",
     "4:7: query 'q': FROM references unknown predicate 'ghost'"),
    ("query-needs-select", _REL + "query q = s.w FROM r s;\n",
     "4:11: expected 'select', found 's'"),
    ("query-needs-alias", _REL + "query q = SELECT s.w FROM r;\n",
     "4:28: expected alias, found ';'"),
    ("query-needs-attribute", _REL + "query q = SELECT s. FROM r s;\n",
     "4:21: expected attribute, found 'FROM'"),
    ("query-keyword-is-no-alias", _REL + "query q = SELECT s.w FROM r WHERE s.w = a;\n",
     "4:29: expected alias, found 'WHERE'"),
    ("query-keyword-is-no-predicate", _REL + "query q = SELECT s.w FROM and s;\n",
     "4:27: expected predicate name, found 'and'"),
    ("query-where-literal", _REL + "query q = SELECT s.w FROM r s WHERE s.w = ;\n",
     "4:43: expected a literal value, found ';'"),
    ("query-where-outside-domain", _REL + "query q = SELECT s.w FROM r s WHERE s.w = c;\n",
     "4:7: query 'q': constant 'c' is outside domain 'T' of s.w"),
    ("query-name-taken-by-union",
     _REL + "query q = SELECT s.w FROM r s;\nunion u = q | q;\nquery u = SELECT s.w FROM r s;\n",
     "6:7: duplicate query name 'u'"),
    ("union-name-taken-by-query", _REL + "query q = SELECT s.w FROM r s;\nunion q = q | q;\n",
     "5:7: duplicate union name 'q'"),
    ("union-one-part", _REL + "query q = SELECT s.w FROM r s;\nunion u = q;\n",
     '5:7: a union needs at least two results'),
    ("union-unknown-part", _REL + "query q = SELECT s.w FROM r s;\nunion u = q | ghost;\n",
     "5:7: union 'u' references unknown result 'ghost'"),
    ("union-shapes-differ", _TWO_SHAPES + "union u = q1 | q1 | q2;\n",
     "9:21: union 'u': 'q2' gives (y:N) but 'q1' gives (x:T)"),
    ("setup-unknown-diagram", _HOM_DIAGRAM + "setup s = ghost(r);\n",
     "11:11: unknown diagram 'ghost'"),
    ("setup-unknown-relation", _HOM_DIAGRAM + "setup s = h(ghost);\n",
     "11:13: unknown relation 'ghost'"),
    ("setup-needs-hom-codomain",
     _OPEN_DIAGRAM + " solder inner1.w -> c;\n solder out.w -> c;\n}\nsetup s = d(r);\n",
     "9:7: setup 's': diagram codomain must be [Z => Z]"),
    ("setup-arity", _HOM_DIAGRAM + "setup s = h(r, r);\n",
     "11:7: setup 's': diagram has 1 inner stars, got 2 relations"),
    ("setup-star-mismatch",
     _HOM_DIAGRAM + 'star V(w:T, v:T);\nrel v : V from "v.csv";\nsetup s = h(v);\n',
     "13:7: setup 's': relation 'v' does not match inner star 1"),
    ("setup-missing-comma", _HOM_DIAGRAM + "setup s = h(r r);\n",
     "11:15: expected ',', found 'r'"),
    ("crlf-line-endings", "type T = {a};\r\nstar S(w:T)\r\n",
     "3:1: expected ';', found 'end of file'"),
    ("comment-before-eof", "# head\ntype T = {a};\n\n   star S(w:T) # tail\n",
     "5:1: expected ';', found 'end of file'"),
]
ERROR_QUERIES = [
    ("query-trailing-input", "SELECT n.w FROM r n extra",
     '1:21: unexpected trailing input after query'),
    ("query-trailing-after-semicolon", "SELECT n.w FROM r n; more",
     '1:22: unexpected trailing input after query'),
    ("query-unknown-alias", "SELECT z.w FROM r n", "reference z.w names unknown alias 'z'"),
    ("query-bad-character", "SELECT n.w FROM r n WHERE n.w = $", "1:33: unexpected character '$'"),
    ("query-ends-early", "SELECT n.w FROM", "1:16: expected predicate name, found 'end of file'"),
    ("query-needs-select", "n.w FROM r n", "1:1: expected 'select', found 'n'"),
    ("query-keyword-is-no-attribute", "SELECT n.Select FROM r n",
     "1:10: expected attribute, found 'Select'"),
    ("query-condition-needs-equals", "SELECT n.w FROM r n WHERE n.w 'a'",
     '1:31: expected \'=\', found "\'a\'"'),
    ("query-second-line", "SELECT n.w\nFROM r n\nWHERE n.w = 'z'",
     "constant 'z' is outside domain 'T' of n.w"),
]



class TestErrorMessages:
    """Every parser error, with its exact message and position."""

    @pytest.mark.parametrize(
        "text, message", [c[1:] for c in ERROR_SCRIPTS], ids=[c[0] for c in ERROR_SCRIPTS]
    )
    def test_script(self, text, message):
        with pytest.raises(ScriptError) as err:
            parse_script(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message", [c[1:] for c in ERROR_QUERIES], ids=[c[0] for c in ERROR_QUERIES]
    )
    def test_query(self, text, message):
        with pytest.raises(ScriptError) as err:
            parse_query_text(text, parse_script(_REL))
        assert str(err.value) == message


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


    def test_value_with_apostrophe_round_trips(self):
        script = parse_script('type T = {"it\'s", b};\n')
        printed = format_script(script)
        assert printed == 'type T = {"it\'s", \'b\'};\n'
        assert parse_script(printed).domains["T"].values == ("it's", "b")


# Text values the DSL accepts: they read back from CSV, and hold at most one
# kind of quote, since a quoted literal cannot contain its own quote.
_texts = st.text(alphabet="ab1_-' \"", min_size=1, max_size=4).filter(
    lambda v: survives_csv(v) and not ("'" in v and '"' in v)
)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")


@st.composite
def _literals(draw, value):
    """One way to write ``value`` in a script."""
    if isinstance(value, int):
        return str(value)
    quotes = [q for q in "'\"" if q not in value]
    if _IDENT.fullmatch(value):
        quotes.append("")
    quote = draw(st.sampled_from(quotes))
    return f"{quote}{value}{quote}"


@st.composite
def _scripts(draw):
    """Script text of random ``type``, ``star`` and ``const`` declarations."""
    lines: list[str] = []
    domains: list[tuple] = []
    for k in range(draw(st.integers(0, 6))):
        filled = [d for d in domains if d[1]]
        kind = draw(
            st.sampled_from(["type"] + ["star"] * bool(domains) + ["const"] * bool(filled))
        )
        if kind == "type":
            if draw(st.booleans()):
                lo = draw(st.integers(-3, 3))
                hi = lo + draw(st.integers(0, 3))
                lines.append(f"type T{k} = range {lo}..{hi};")
                values = tuple(range(lo, hi + 1))
            else:
                values = tuple(
                    draw(
                        st.lists(
                            st.one_of(st.integers(-9, 9), _texts),
                            max_size=4,
                            unique=True,
                        )
                    )
                )
                body = ", ".join(draw(_literals(v)) for v in values)
                lines.append(f"type T{k} = {{{body}}};")
            domains.append((f"T{k}", values))
        elif kind == "star":
            types = draw(st.lists(st.sampled_from(domains), max_size=3))
            body = ", ".join(f"w{j}:{name}" for j, (name, _v) in enumerate(types))
            lines.append(f"star S{k}({body});")
        else:
            name, values = draw(st.sampled_from(filled))
            value = draw(st.sampled_from(values))
            lines.append(f"const c{k} : {name} = {draw(_literals(value))};")
    return "\n".join(lines) + "\n"


class TestFormatRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_scripts())
    def test_format_parse_format_is_stable(self, text):
        printed = format_script(parse_script(text))
        assert format_script(parse_script(printed)) == printed


class TestInlineQuery:
    def test_parse_query_text(self):
        script = parse_script(NAND_SCRIPT)
        q = parse_query_text("SELECT n.out FROM nand n WHERE n.A = 'True'", script)
        assert q.conditions[0].literal == "True"

    def test_trailing_garbage_rejected(self):
        script = parse_script(NAND_SCRIPT)
        with pytest.raises(ScriptError, match="trailing"):
            parse_query_text("SELECT n.out FROM nand n extra", script)
