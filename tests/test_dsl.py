import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import DECLARATION_KEYWORDS, declarations_oracle, tokens_oracle
from wiring.csvio import survives_csv
from wiring import dsl
from wiring.dsl import parse_script, parse_select_text, resolve_query_text, tokenize
from wiring.errors import ScriptError
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


class TestParsing:
    def test_empty_script(self):
        script = parse_script("")
        assert script.decls == ()

    def test_quoted_value_with_apostrophe(self):
        script = parse_script('type T = {"it\'s", b};\n')
        assert script.domains["T"].values == ("it's", "b")

    @pytest.mark.parametrize(
        "path, count",
        [("factorial/factorial.wd", 10), ("wiki/wiki.wd", 11), ("nand/circuits.wd", 7)],
    )
    def test_one_decl_per_declaration(self, fixtures_dir, path, count):
        assert len(parse_script((fixtures_dir / path).read_text()).decls) == count

    def test_range_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(dsl, "MAX_RANGE_VALUES", 3)
        assert parse_script("type N = range 1..3;\n").domains["N"].values == (1, 2, 3)
        with pytest.raises(ScriptError, match="1:16: range 0..3 has 4 values, bound is 3"):
            parse_script("type N = range 0..3;\n")

    def test_comments_and_keyword_case(self):
        script = parse_script(
            "# a comment\ntype T = {a};\nstar S(w:T);\nrel r : S from \"x.csv\";\n"
            "query q = select s.w from r s;  # trailing\n"
        )
        assert list(script.queries) == ["q"]
        # every keyword in another case; the heads ``out`` and ``inner<k>`` keep theirs
        lower = _HOM_DIAGRAM + (
            "type N = range 0..2;\nconst k : T = a;\n"
            "query q = select s.w from r s, k t where s.w = t.value and s.w = 'a';\n"
            "union u = q | q;\nsetup z = h(r);\n"
        )
        cases = itertools.cycle([str.upper, str.title, lambda w: w[:-1] + w[-1].upper()])
        words = DECLARATION_KEYWORDS + ("range", "from", "cable", "solder")
        words += ("select", "where", "and")
        keyword = re.compile(rf"\b({'|'.join(words)})\b")
        text = keyword.sub(lambda m: next(cases)(m[1]), lower)
        assert not keyword.search(text)
        got, want = parse_script(text), parse_script(lower)
        assert len(got.decls) == len(want.decls)
        for attr in _TABLES:
            assert list(getattr(got, attr)) == list(getattr(want, attr))
            _assert_entries_equal(attr, got, want, getattr(want, attr))
        _assert_on_demand_equals_eager(text)  # and read by parts, name by name

    def test_full_script_resolves(self):
        script = parse_script(NAND_SCRIPT)
        assert set(script.stars) == {"NAND", "IO"}
        assert script.diagrams["notgate"].typed.arity == 1
        assert script.unions["gates"].parts == ("notq", "buf")

    def test_primes_in_identifiers(self, fixtures_dir):
        script = parse_script((fixtures_dir / "factorial" / "factorial.wd").read_text())
        assert "A'" in script.stars["DEC"].star


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
    ("literal-at-eof", "type T = {a,", "1:13: expected a literal value, found 'end of file'"),
    ("duplicate-type", "type T = {a};\ntype T = {b};\n", "2:6: duplicate type name 'T'"),
    ("unknown-type", "star S(w:U);\n", "1:10: unknown type 'U'"),
    ("unknown-star", 'type T = {a};\nrel r : GHOST from "r.csv";\n', "2:9: unknown star 'GHOST'"),
    ("not-a-declaration", "type T = {a};\n;\n", '2:1: expected a declaration'),
    ("unknown-declaration", "table T = {a};\n", "1:1: unknown declaration 'table'"),
    ("empty-range", "type N = range 3..1;\n", '1:16: empty range 3..1'),
    ("range-too-wide", "type N = range 0..999999999999;\n",
     "1:16: range 0..999999999999 has 1000000000000 values, bound is 1000000"),
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
    ("query-unknown-alias", "SELECT z.w FROM r n",
     "1:8: reference z.w names unknown alias 'z'"),
    ("query-bad-character", "SELECT n.w FROM r n WHERE n.w = $", "1:33: unexpected character '$'"),
    ("query-ends-early", "SELECT n.w FROM", "1:16: expected predicate name, found 'end of file'"),
    ("query-literal-at-eof", "SELECT n.w FROM r n WHERE n.w =",
     "1:32: expected a literal value, found 'end of file'"),
    ("query-needs-select", "n.w FROM r n", "1:1: expected 'select', found 'n'"),
    ("query-keyword-is-no-attribute", "SELECT n.Select FROM r n",
     "1:10: expected attribute, found 'Select'"),
    ("query-condition-needs-equals", "SELECT n.w FROM r n WHERE n.w 'a'",
     '1:31: expected \'=\', found "\'a\'"'),
    ("query-second-line", "SELECT n.w\nFROM r n\nWHERE n.w = 'z'",
     "3:13: constant 'z' is outside domain 'T' of n.w"),
    ("query-unknown-predicate", "  SELECT n.w FROM ghost n",
     "1:19: FROM references unknown predicate 'ghost'"),
    ("query-unknown-attribute", "SELECT n.v FROM r n", "1:10: alias 'n' has no attribute 'v'"),
    ("query-unknown-alias-in-where", "SELECT n.w FROM r n WHERE n.w = m.w",
     "1:33: reference m.w names unknown alias 'm'"),
    ("query-repeated-alias", "SELECT n.w FROM r n, r n", "1:24: duplicate FROM alias 'n'"),
    ("query-repeated-column", "SELECT n.w, n.w FROM r n", "1:15: SELECT list repeats a column"),
    ("query-column-repeated-later", "SELECT n.w, m.w, n.w FROM r n, r m",
     "1:20: SELECT list repeats a column"),
    ("query-cannot-equate", "SELECT n.w FROM r n, rv m WHERE n.w = m.v",
     "1:41: cannot equate n.w (T) with m.v (N)"),
]
# the script that ERROR_QUERIES resolve against
_QUERY_SCRIPT = _REL + 'type N = range 0..3;\nstar V(v:N);\nrel rv : V from "v.csv";\n'



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
            resolve_query_text(text, parse_select_text(text), parse_script(_QUERY_SCRIPT))
        assert str(err.value) == message


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
    """Script text of random ``type``, ``star`` and ``const`` declarations,
    with what it declares: each type's values in order, each star's wires
    with their type names in order, and each const's value."""
    lines: list[str] = []
    domains: dict[str, tuple] = {}
    stars: dict[str, list[tuple[str, str]]] = {}
    consts: dict[str, object] = {}
    for k in range(draw(st.integers(0, 6))):
        filled = [name for name, values in domains.items() if values]
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
            domains[f"T{k}"] = values
        elif kind == "star":
            types = draw(st.lists(st.sampled_from(list(domains)), max_size=3))
            wires = [(f"w{j}", name) for j, name in enumerate(types)]
            body = ", ".join(f"{w}:{name}" for w, name in wires)
            lines.append(f"star S{k}({body});")
            stars[f"S{k}"] = wires
        else:
            name = draw(st.sampled_from(filled))
            value = draw(st.sampled_from(domains[name]))
            lines.append(f"const c{k} : {name} = {draw(_literals(value))};")
            consts[f"c{k}"] = value
    return "\n".join(lines) + "\n", domains, stars, consts


# Pieces of token soup: every token kind, comments, whitespace of every
# sort, and characters no token starts with.  Pieces are joined with no
# separator, so neighbours also merge (``a`` ``1`` is ``a1``, ``-`` ``>`` is ``->``).
_SOUP_PIECES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}'{0,2}", fullmatch=True),
    st.integers(-99, 99).map(str),
    st.from_regex(r"'[^'\n]{0,3}'|\"[^\"\n]{0,3}\"", fullmatch=True),
    st.sampled_from(["->", "=>", "..", *"(){}[],:;.=|", "-", ">"]),
    st.from_regex(r"#[^\n]{0,6}", fullmatch=True),
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c",
                     "\u00a0", "\u2028", "\u3000"]),
    st.sampled_from(["@", "$", "!", "\\", "`", "\u00e9", "\u0663", "'", '"', "\x00"]),
)


class TestTokenizer:
    """``tokenize`` makes one match per token; the oracle matches every
    whitespace run and comment too, then drops them.  A token is its text;
    the oracle's offsets are checked through the parser's positions below."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SOUP_PIECES, max_size=30).map("".join))
    @example("a # comment at the end, no newline")
    @example("x\r\n\t# c\r\n  -> y'' \u00a0=> 1..-2 \u2028'q' \"r\"")
    @example("  \n\t  ")
    @example("a\n  b @ c")
    @example("# only a comment")
    def test_matches_the_literal_oracle(self, text):
        expected = tokens_oracle(text)
        if isinstance(expected, str):
            with pytest.raises(ScriptError) as err:
                tokenize(text)
            assert str(err.value) == expected
        else:
            assert tokenize(text) == [tok for _kind, tok, _offset in expected]

    @pytest.mark.parametrize("skip", [" ", "\n", "# c\n"])
    def test_long_skip_before_a_bad_character_is_quick(self, skip):
        text = skip * (10**6 // len(skip)) + "@"
        start = time.perf_counter()
        with pytest.raises(ScriptError, match="unexpected character '@'"):
            tokenize(text)
        assert time.perf_counter() - start < 1.0


class TestParseGivesWhatWasWritten:
    @settings(max_examples=150, deadline=None)
    @given(_scripts())
    def test_parse_returns_declared_values(self, case):
        text, domains, stars, consts = case
        script = parse_script(text)
        assert len(script.decls) == len(domains) + len(stars) + len(consts)
        assert {n: d.values for n, d in script.domains.items()} == domains
        assert {
            n: [(w, t.domain(w).name) for w in t.wires] for n, t in script.stars.items()
        } == stars
        assert {n: r.tuples for n, r in script.consts.items()} == {
            n: {(v,)} for n, v in consts.items()
        }


class TestInlineQuery:
    def test_inline_query_resolves_against_the_script(self):
        script = parse_script(NAND_SCRIPT)
        text = "SELECT n.out FROM nand n WHERE n.A = 'True'"
        q = resolve_query_text(text, parse_select_text(text), script)
        assert q.conditions[0].literal == "True"

    def test_trailing_garbage_rejected(self):
        script = parse_script(NAND_SCRIPT)
        with pytest.raises(ScriptError, match="trailing"):
            text = "SELECT n.out FROM nand n extra"
            resolve_query_text(text, parse_select_text(text), script)


# Soups shaped like scripts: a keyword, or sometimes another word, then
# pieces, then something that may end the declaration.
_DECLARATION_SOUPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["type", "Star", "rel", "const", "diagram", "DIAGRAM", "query", "union", "setup",
             "table"]
        ),
        st.lists(_SOUP_PIECES, max_size=6).map("".join),
        st.sampled_from([";", "}", " ;\n", "", "{x;};", "{};"]),
    ),
    max_size=5,
).map(lambda decls: "".join(f"{keyword} {body}{end}" for keyword, body, end in decls))


class TestSplitDeclarations:
    """The pass that finds the declarations without tokenizing them agrees
    with the lexer's tokens, bad characters among them."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(_SOUP_PIECES, max_size=30).map("".join), _DECLARATION_SOUPS))
    @example("star S(w:T);\ndiagram d(S) -> S { cable c:T; }\nquery q = SELECT a.w' FROM r a;")
    @example("type T = {a'b', x1'';}; rel r : S from \"{;\"; # ;}\n")
    @example("rel r = a5' ; rel s = 'x;' ;")
    @example("rel r = 5' ; rel s = 'x;' ;")
    @example("rel r = _'' '' ; rel s = \"'\" ' ;")
    @example("diagram d(S) -> S; diagram e {}")
    @example("type T = {{a} ; rel r;")
    @example("type T = a}; ")
    def test_agrees_with_the_tokens(self, text):
        assert dsl.split_declarations(text) == declarations_oracle(text)

    @pytest.mark.parametrize(
        "text",
        ["type T = " + "ab'c 'd " * 50_000, "type T = {" + "a, " * 100_000, "a'" * 100_000],
        ids=["primes-and-quotes", "unclosed-brace", "no-keyword"],
    )
    def test_a_long_text_that_does_not_split_is_quick(self, text):
        start = time.perf_counter()
        assert dsl.split_declarations(text) is None
        assert time.perf_counter() - start < 1.0


def _offset(text, line, column):
    """The offset in ``text`` of the 1-based ``line`` and ``column``."""
    return sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1


def _lexing(text):
    """``text`` with the characters that the oracle finds unexpected taken
    out, one at a time, until it lexes."""
    while isinstance(message := tokens_oracle(text), str):
        offset = _offset(text, *map(int, message.split(":")[:2]))
        text = text[:offset] + text[offset + 1 :]
    return text


def _assert_placed_by_index(parser, expected):
    """``parser.fail`` at each index of ``expected``, the oracle's tokens,
    gives the line and column of the token's offset."""
    text = parser.text
    assert parser.tokens == [tok for _kind, tok, _offset in expected]
    for index, (_kind, _tok, offset) in enumerate(expected):
        err = parser.fail("here", index)
        line = text.count("\n", 0, offset) + 1
        assert (err.line, err.column) == (line, offset - _offset(text, line, 1) + 1)


class TestPositionsFromIndices:
    """The parser keeps token indices; ``fail`` finds the line and column of
    any of them by lexing again, from the start of the whole text or of the
    declaration read by parts that holds the token."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_SOUP_PIECES, max_size=30).map("".join), _DECLARATION_SOUPS))
    @example("a\r\n  b # c\n\n\td")
    @example("  \n")
    def test_every_token_of_a_whole_text(self, text):
        text = _lexing(text)
        _assert_placed_by_index(dsl._Parser(text, tokenize(text)), tokens_oracle(text))

    def test_every_token_of_a_text_read_by_parts(self, monkeypatch):
        # S reads T, so both are chosen; X and k, before and between them, are not
        text = (
            "type T = {a, b};\n# X\nstar X(v:T);\n  star S(w:T, v\n: T) ;"
            "\nconst k : T = b;\n\n"
        )
        parsers = []
        parse = dsl._Parser.parse
        monkeypatch.setattr(dsl._Parser, "parse", lambda self: parsers.append(self) or parse(self))
        parse_script(text, {"S": ("star",)})
        chosen = [d for d in dsl.split_declarations(text) if d.name in ("T", "S")]
        assert len(parsers) == len(chosen) == 2  # one parser per chosen declaration
        oracle = tokens_oracle(text)
        for parser, decl in zip(parsers, chosen):
            # the end of a declaration's tokens follows its last ``;`` or ``}``,
            # which its handler reads last, so no error is placed there
            assert parser.tokens.pop() == ""
            _assert_placed_by_index(parser, [t for t in oracle if decl.start <= t[2] < decl.end])


# the tables of a ``Script``, with the typed star of each result first, and
# the keywords that declare the names in each
_TABLES = {
    "shapes": ("query", "union"),
    "domains": ("type",),
    "stars": ("star",),
    "relations": ("rel",),
    "consts": ("const",),
    "diagrams": ("diagram",),
    "queries": ("query",),
    "unions": ("union",),
    "setups": ("setup",),
}


def _assert_entries_equal(attr, got, want, names):
    """Table ``attr`` of the scripts ``got`` and ``want`` holds equal values
    under each of ``names``."""
    got, want = getattr(got, attr), getattr(want, attr)
    for name in names:
        if attr == "diagrams":
            assert (got[name].name, got[name].hom) == (want[name].name, want[name].hom)
            assert typed_diagrams_equal(got[name].typed, want[name].typed)
        else:
            assert got[name] == want[name]


def _assert_on_demand_equals_eager(text):
    """Every name that ``parse_script`` resolves resolves to an equal value
    when it alone is read with the keywords of its table, and reading every
    name with every keyword gives every table."""
    eager = parse_script(text)
    for attr, keywords in _TABLES.items():
        for name in getattr(eager, attr):
            _assert_entries_equal(attr, parse_script(text, {name: keywords}), eager, [name])
    assert parse_script(text, {"no-such-name": DECLARATION_KEYWORDS}).decls == ()
    names = {name for attr in _TABLES for name in getattr(eager, attr)}
    every = parse_script(text, dict.fromkeys(names, DECLARATION_KEYWORDS))
    assert len(every.decls) == len(eager.decls)
    for attr in _TABLES:
        assert list(getattr(every, attr)) == list(getattr(eager, attr))


def _catalog_script(seed: int) -> str:
    """A script of every kind of declaration, with rels, queries and unions
    drawn at random, as ``wd`` meets in generated catalogs."""
    rng = random.Random(seed)
    wire_types = {"x": "T0", "y": "T0", "z": "T1", "value": "T0"}
    lines = ["type T0 = {a, b, c};", "type T1 = range 0..3;"]
    stars = {}
    for s in range(4):
        wires = sorted(rng.sample(["x", "y", "z"], 2))
        stars[f"S{s}"] = wires
        lines.append(f"star S{s}({', '.join(f'{w}:{wire_types[w]}' for w in wires)});")
    rels = {"k": ["value"]}
    for r in range(12):
        star = "S0" if r == 0 else rng.choice(sorted(stars))
        rels[f"r{r}"] = stars[star]
        lines.append(f'rel r{r} : {star} from "r{r}.csv";')
        if r == 5:
            lines.append("const k : T0 = b;")
    by_column: dict[str, list[str]] = {}
    for q in range(10):
        left, right = rng.sample(sorted(rels), 2)
        column = rng.choice(rels[left])
        shared = sorted(set(rels[left]) & set(rels[right]))
        where = f" WHERE a.{shared[0]} = b.{shared[0]}" if shared else ""
        lines.append(f"query q{q} = SELECT a.{column} FROM {left} a, {right} b{where};")
        by_column.setdefault(f"{column}:{wire_types[column]}", []).append(f"q{q}")
    for u, parts in enumerate(p for p in by_column.values() if len(p) > 1):
        lines.append(f"union u{u} = {' | '.join(parts)};")
    w0, w1 = stars["S0"]
    solders = "".join(
        f" solder inner1.{w} -> c{w};\n solder out.arg1.{w} -> c{w};\n"
        f" solder out.ret.{w} -> c{w};\n"
        for w in (w0, w1)
    )
    lines.append(
        f"diagram h(S0) -> [S0 => S0] {{\n cable c{w0} : {wire_types[w0]};\n"
        f" cable c{w1} : {wire_types[w1]};\n{solders}}}"
    )
    lines.append("setup s = h(r0);")
    return "\n".join(lines) + "\n"


class TestParseOnDemand:
    """``parse_script(text, reads)`` gives what ``parse_script(text)`` gives,
    name by name, and the error of the declaration that holds one."""

    @settings(max_examples=100, deadline=None)
    @given(_scripts())
    def test_generated_scripts(self, case):
        _assert_on_demand_equals_eager(case[0])

    @pytest.mark.parametrize(
        "path", ["factorial/factorial.wd", "wiki/wiki.wd", "nand/circuits.wd"]
    )
    def test_fixtures(self, fixtures_dir, path):
        _assert_on_demand_equals_eager((fixtures_dir / path).read_text())

    @pytest.mark.parametrize("seed", range(3))
    def test_catalogs(self, seed):
        text = _catalog_script(seed)
        assert parse_script(text).unions and parse_script(text).setups
        _assert_on_demand_equals_eager(text)

    def test_in_test_scripts(self):
        for text in (NAND_SCRIPT, _TWO_SHAPES, _HOM_DIAGRAM):
            _assert_on_demand_equals_eager(text)

    def test_a_long_chain_of_unions_stays_within_the_recursion_limit(self):
        text = _REL + "query q = SELECT s.w FROM r s;\nunion u0 = q | q;\n" + "".join(
            f"union u{i} = u{i - 1} | q;\n" for i in range(1, 400)
        )
        _assert_on_demand_equals_eager(text)

    @pytest.mark.parametrize(
        "text, message", [c[1:] for c in ERROR_SCRIPTS], ids=[c[0] for c in ERROR_SCRIPTS]
    )
    def test_errors(self, text, message):
        decls = dsl.split_declarations(text)
        if decls is None:  # an error outside any declaration: parsed whole
            reads = {"no-such-name": DECLARATION_KEYWORDS}
        else:
            offset = _offset(text, *map(int, message.split(":")[:2]))
            decl = next(d for d in decls if d.start <= offset < d.end)
            reads = {decl.name: (decl.keyword,)}
        with pytest.raises(ScriptError) as err:
            parse_script(text, reads)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "name, indices",
        [("notq", (0, 1, 3, 5)), ("gates", (0, 1, 3, 5, 7, 8)), ("notgate", (0, 1, 2, 4))],
    )
    def test_decls_are_the_chosen_declarations_in_text_order(self, name, indices):
        eager = parse_script(NAND_SCRIPT)
        chosen = parse_script(NAND_SCRIPT, {name: DECLARATION_KEYWORDS}).decls
        assert chosen[:-1] == tuple(eager.decls[i] for i in indices[:-1])
        if name == "notgate":
            assert typed_diagrams_equal(chosen[-1].typed, eager.decls[4].typed)
        else:
            assert chosen[-1] == eager.decls[indices[-1]]

    def test_bad_characters_are_raised_in_text_order(self):
        # both types are read through q's aliases; x's comes first in the text
        text = _REL + "query q = SELECT x.w FROM r x, r y;\ntype x = {$};\ntype y = {%};\n"
        with pytest.raises(ScriptError) as eager:
            parse_script(text)
        with pytest.raises(ScriptError) as err:
            parse_script(text, {"q": ("query",)})
        assert str(err.value) == str(eager.value) == "5:11: unexpected character '$'"

    def test_a_declaration_s_own_name_chooses_only_its_name_space(self):
        # the rel and the query share the name q, in two name spaces
        text = _STAR + 'rel q : S frm "q.csv";\nrel r : S from "r.csv";\n'
        query = "query q = SELECT s.w FROM r s;\n"
        assert list(parse_script(text + query, {"q": ("query",)}).queries) == ["q"]
        for second, message in [
            (query, "6:7: duplicate query name 'q'"),
            ("union q = x | x;\n", "6:7: duplicate union name 'q'"),
            ("query p = SELECT q.w FROM r q;\n", "3:11: expected 'from', found 'frm'"),
        ]:
            # a second q in the query's name space is chosen, and so is every
            # declaration of q once another chosen declaration reads it
            with pytest.raises(ScriptError) as err:
                parse_script(text + query + second, {"q": ("query",), "p": ("query",)})
            assert str(err.value) == message

    def test_a_declaration_sees_only_those_before_it(self):
        text = _STAR + "query q = SELECT s.w FROM r s;\n" + 'rel r : S from "r.csv";\n'
        assert parse_script(text, {"r": ("rel",)}).relations["r"].path == "r.csv"
        with pytest.raises(ScriptError, match="^3:7: query 'q': FROM references unknown"):
            parse_script(text, {"q": ("query",)})

    @pytest.mark.parametrize(
        "read",
        [
            lambda text: parse_script(text, {"q": ("query",)}),
            lambda text: parse_script(text, {"u": ("union",)}),
            lambda text: resolve_query_text(
                "SELECT s.w FROM r s",
                parse_select_text("SELECT s.w FROM r s"),
                parse_script(text, {"r": ("rel",)}),
            ),
        ],
        ids=["query", "union", "inline-query"],
    )
    def test_an_error_is_placed_where_it_is_not_where_it_is_read(self, read):
        text = (
            _STAR + 'rel r : GHOST from "r.csv";\n'
            "query q = SELECT s.w FROM r s;\nunion u = q | q;\n"
        )
        with pytest.raises(ScriptError) as eager:
            parse_script(text)
        with pytest.raises(ScriptError) as err:
            read(text)
        assert str(err.value) == str(eager.value) == "3:9: unknown star 'GHOST'"
