import hashlib
import os
import re
import subprocess
import sys
import time

import pytest

import wiring
from wiring.cli import run_cli
from wiring.dsl import parse_script
from wiring.errors import ScriptError

NAND_CSV = "A,B,out\nTrue,True,False\nTrue,False,True\nFalse,True,True\nFalse,False,True\n"

SCRIPT = """
type Bool = {True, False};
star NAND(A:Bool, B:Bool, out:Bool);
rel nand : NAND from "nand.csv";
query notq = SELECT n.A, n.out FROM nand n WHERE n.A = n.B;
query andq = SELECT n1.A, n1.B, n2.out FROM nand n1, nand n2
  WHERE n1.out = n2.A AND n1.out = n2.B;
diagram copy(NAND) -> NAND {
  cable ca : Bool;
  cable cb : Bool;
  cable co : Bool;
  solder inner1.A -> ca;
  solder inner1.B -> cb;
  solder inner1.out -> co;
  solder out.A -> ca;
  solder out.B -> cb;
  solder out.out -> co;
}
"""


@pytest.fixture()
def project(tmp_path):
    (tmp_path / "circuits.wd").write_text(SCRIPT)
    (tmp_path / "nand.csv").write_text(NAND_CSV)
    return tmp_path


def test_check_ok(project, capsys):
    assert run_cli(["check", str(project / "circuits.wd")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_counts_rels_and_consts_apart(project, capsys):
    (project / "consts.wd").write_text("type T = {a, b};\nconst x : T = a;\nconst y : T = b;\n")
    assert run_cli(["check", str(project / "consts.wd")]) == 0
    assert "(1 types, 0 stars, 0 relations, 2 consts, 0 diagrams," in capsys.readouterr().out
    assert run_cli(["check", str(project / "circuits.wd")]) == 0
    assert "(1 types, 1 stars, 1 relations, 0 consts, 1 diagrams," in capsys.readouterr().out


def test_eval_writes_csv(project, capsys):
    assert run_cli(["eval", str(project / "circuits.wd"), "notq"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "A,out"
    assert set(out[1:]) == {"True,False", "False,True"}


def test_eval_out_file(project, tmp_path):
    target = tmp_path / "result.csv"
    code = run_cli(
        ["eval", str(project / "circuits.wd"), "notq", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text().startswith("A,out\n")


def test_eval_union(project, capsys):
    (project / "circuits.wd").write_text(SCRIPT + "union gates = notq | andq;\n")
    assert run_cli(["eval", str(project / "circuits.wd"), "gates"]) == 1
    # differently-shaped results cannot be unioned
    assert "error" in capsys.readouterr().err


SPLIT_UNIONS = """
query tnot = SELECT n.A, n.out FROM nand n WHERE n.A = n.B AND n.out = 'False';
query fnot = SELECT n.A, n.out FROM nand n WHERE n.A = n.B AND n.out = 'True';
union both = tnot | fnot;
union again = both | notq;
"""


@pytest.mark.parametrize("name", ["both", "again"])
def test_eval_union_of_one_shape(project, capsys, name):
    # notq split by its output and put back together, and that union again
    # with notq itself, evaluate to notq's bytes
    assert run_cli(["eval", str(project / "circuits.wd"), "notq"]) == 0
    want = capsys.readouterr().out
    script = project / "unions.wd"
    script.write_text(SCRIPT + SPLIT_UNIONS)
    assert run_cli(["eval", str(script), name]) == 0
    assert capsys.readouterr().out == want


def test_union_of_different_shapes_fails_check(project, capsys):
    script = project / "circuits.wd"
    script.write_text(SCRIPT + "union gates = notq | andq;\n")
    assert run_cli(["check", str(script)]) == 1
    line = SCRIPT.count("\n") + 1
    assert f"error: {line}:22: union 'gates': 'andq' gives" in capsys.readouterr().err


def test_inline_query(project, capsys):
    code = run_cli(
        [
            "query",
            str(project / "circuits.wd"),
            "SELECT n.out FROM nand n WHERE n.A = 'True' AND n.B = 'True'",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "out\nFalse\n"


def test_dot_subcommand(project, capsys):
    assert run_cli(["dot", str(project / "circuits.wd"), "copy"]) == 0
    assert capsys.readouterr().out.startswith("graph copy {")
    assert run_cli(["dot", str(project / "circuits.wd"), "notq"]) == 0


# DOT's grammar: an unquoted ID is a plain name that is not a keyword, in
# any case; any other ID is a quoted string
DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _is_dot_id(text):
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return text.lower() not in DOT_KEYWORDS
    return re.fullmatch(r'"(\\"|[^"])*"', text) is not None


@pytest.mark.parametrize(
    "name, graph_id",
    [("q7", "q7"), ("node", '"node"'), ("Subgraph", '"Subgraph"'), ("STRICT", '"STRICT"'),
     ("edge_1", "edge_1"), ("q'", '"q\'"')],
)
def test_dot_names_a_graph_by_a_valid_dot_id(fixtures_dir, tmp_path, capsys, name, graph_id):
    wiki = (fixtures_dir / "wiki" / "wiki.wd").read_text(encoding="utf-8")
    assert run_cli(["dot", str(fixtures_dir / "wiki" / "wiki.wd"), "shared_course"]) == 0
    plain = capsys.readouterr().out
    renamed = tmp_path / "wiki.wd"
    renamed.write_text(wiki.replace("query shared_course", f"query {name}"), encoding="utf-8")
    assert run_cli(["dot", str(renamed), name]) == 0
    out = capsys.readouterr().out
    head, rest = out.split("\n", 1)
    assert head == f"graph {graph_id} {{" and _is_dot_id(graph_id)
    assert rest == plain.split("\n", 1)[1]


@pytest.mark.parametrize(
    "script, name, digest",
    [
        (
            "factorial/factorial.wd",
            "factstep",
            "1cca079b9c06dafba82c2ff17b48cf94a36cc0fa986cd4e5de544fbf1aa03a03",
        ),
        (
            "nand/circuits.wd",
            "notgate",
            "fdf8b70b654f418a1e90d5e307d7b24f6a44edba480bb6773d8826547a5e5513",
        ),
        (
            "nand/circuits.wd",
            "notq",
            "071af320c6a7bdfe8b0fc1edaee3b91bed9565e88940a0aef4d19a7b952f8bd1",
        ),
        (
            "nand/circuits.wd",
            "andq",
            "2623552a5d567c9e99d54eb994f33dcdc0e353d6eda1f1ff2468ac80ca71a1e4",
        ),
        (
            "wiki/wiki.wd",
            "shared_course",
            "9650cb0eca59e699224f11c42e1370059f21c2dc6daaca53f894e4c477c16507",
        ),
    ],
)
def test_dot_of_every_fixture_diagram_and_query_is_pinned(
    fixtures_dir, capsys, script, name, digest
):
    # dot canonicalizes, so these pin the canonical cable numbering
    assert run_cli(["dot", str(fixtures_dir / script), name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unknown_name_is_user_error(project, capsys):
    assert run_cli(["eval", str(project / "circuits.wd"), "ghost"]) == 1
    assert "ghost" in capsys.readouterr().err


def test_missing_file_is_user_error(tmp_path, capsys):
    assert run_cli(["check", str(tmp_path / "absent.wd")]) == 1


@pytest.mark.parametrize(
    "data, position, reason",
    [
        (b"type T = {a};\n# caf\xe9\n", "2:6", "invalid continuation byte"),
        (b"type T = {a};\r\n# caf\xe9\r\n", "2:6", "invalid continuation byte"),
        (b"\xef\xbb\xbftype T = {a};\n\xff", "2:1", "invalid start byte"),
        (b"type T = {'\xc3\xa9', '\xe9'};", "1:17", "invalid continuation byte"),
    ],
    ids=["lf", "crlf", "after-bom", "mid-line"],
)
def test_script_that_is_not_utf8_is_user_error(tmp_path, capsys, data, position, reason):
    bad = tmp_path / "latin1.wd"
    bad.write_bytes(data)
    assert run_cli(["check", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}:{position}: not UTF-8 text: {reason}\n"


def test_script_with_a_byte_order_mark_reads(project, capsys):
    script = project / "circuits.wd"
    script.write_bytes(b"\xef\xbb\xbf" + script.read_bytes())
    assert run_cli(["check", str(script)]) == 0
    assert capsys.readouterr().out.startswith(f"{script}: ok (")
    assert run_cli(["eval", str(script), "notq"]) == 0
    assert set(capsys.readouterr().out.splitlines()[1:]) == {"True,False", "False,True"}


def test_parse_error_is_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.wd"
    bad.write_text("type T = {a}\n")  # missing semicolon
    assert run_cli(["check", str(bad)]) == 1
    assert "expected" in capsys.readouterr().err


def test_bad_csv_value_is_user_error(project, capsys):
    (project / "nand.csv").write_text("A,B,out\nTrue,True,maybe\n")
    assert run_cli(["check", str(project / "circuits.wd")]) == 1
    assert "row 1" in capsys.readouterr().err


def test_missing_csv_is_user_error(project, capsys):
    (project / "nand.csv").unlink()
    assert run_cli(["check", str(project / "circuits.wd")]) == 1
    err = capsys.readouterr().err
    assert "nand.csv" in err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "command, message",
    [
        (["dot", "circuits.wd", "nosuch"], "error: no diagram or query named 'nosuch'"),
        (["fixpoint", "circuits.wd", "nosuch"], "error: no setup named 'nosuch'"),
    ],
    ids=["dot", "fixpoint"],
)
def test_unknown_dot_or_setup_name_is_user_error(project, capsys, command, message):
    argv = [command[0], str(project / command[1]), *command[2:]]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize(
    "text, reason",
    [
        ("", ": missing header row"),
        ("\n\n", ": missing header row"),
        ("A,B,A\n", ":1: header repeats a column"),
    ],
    ids=["empty", "blank-lines", "repeated-column"],
)
def test_bad_csv_header_is_user_error(project, capsys, text, reason):
    csv = project / "nand.csv"
    csv.write_text(text)
    assert run_cli(["check", str(project / "circuits.wd")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {csv}{reason}"]


def test_non_ascii_digit_cell_is_user_error(project, capsys):
    (project / "nand.csv").write_text("A,B,out\nTrue,True,²\n", encoding="utf-8")
    assert run_cli(["check", str(project / "circuits.wd")]) == 1
    assert "row 1, column 'out'" in capsys.readouterr().err


def test_wire_soldered_twice_is_user_error(project, capsys):
    script = project / "circuits.wd"
    twice = "solder inner1.A -> ca;\n  solder inner1.A -> co;"
    script.write_text(SCRIPT.replace("solder inner1.A -> ca;", twice))
    assert run_cli(["check", str(script)]) == 1
    assert "already soldered" in capsys.readouterr().err


def test_fixpoint_round_trip(tmp_path, capsys, fixtures_dir):
    import shutil

    for name in ("factorial.wd", "decrement.csv", "multiply.csv", "conditional.csv"):
        shutil.copy(fixtures_dir / "factorial" / name, tmp_path / name)
    code = run_cli(["fixpoint", str(tmp_path / "factorial.wd"), "fact", "--mode", "gfp"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "A,B"
    assert "4,24" in captured.out
    assert captured.err.splitlines() == ["fact: mode=gfp tuples=5 iterations=25"]
    assert run_cli(["fixpoint", str(tmp_path / "factorial.wd"), "fact", "--mode", "lfp"]) == 0
    assert capsys.readouterr().err.splitlines() == ["fact: mode=lfp tuples=0 iterations=1"]


FREE_CABLES_SCRIPT = """
type N = range 0..99;
star F(A:N, B:N);
star U(A:N);
rel u : U from "u.csv";
diagram d(U) -> [F => F] {
  cable x : N;
  cable p : N;
  cable q : N;
  cable r : N;
  cable t : N;
  solder inner1.A -> x;
  solder out.ret.A -> p;
  solder out.ret.B -> q;
  solder out.arg1.A -> r;
  solder out.arg1.B -> t;
}
setup s = d(u);
"""


def test_fixpoint_refuses_huge_free_cable_expansion(tmp_path, capsys):
    # four outer cables no inner wire touches: 10^8 assignments
    (tmp_path / "free.wd").write_text(FREE_CABLES_SCRIPT)
    (tmp_path / "u.csv").write_text("A\n3\n")
    start = time.perf_counter()
    assert run_cli(["fixpoint", str(tmp_path / "free.wd"), "s"]) == 1
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert "error:" in err and "bound is 10000000" in err


def test_query_refuses_a_keyless_step_above_the_bound(tmp_path, capsys, monkeypatch):
    # the two aliases share no cable: their step is a 200 x 200 cross product
    monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
    (tmp_path / "r.wd").write_text(
        'type N = range 0..3999;\nstar R(x:N);\nrel r : R from "r.csv";\n'
    )
    (tmp_path / "r.csv").write_text("x\n" + "".join(f"{k}\n" for k in range(200)))
    argv = ["query", str(tmp_path / "r.wd"), "SELECT a.x, b.x FROM r a, r b"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the cross product of 200 partial tuples and 200 tuples enumerates "
        "40000 pairs, bound is 1000"
    ]


def test_query_refuses_a_keyed_step_above_the_bound(tmp_path, capsys, monkeypatch):
    # every one of the 200 tuples shares its key with every other: 200 x 200
    monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
    (tmp_path / "r.wd").write_text(
        'type N = range 0..3999;\nstar R(k:N, x:N);\nrel r : R from "r.csv";\n'
    )
    (tmp_path / "r.csv").write_text("k,x\n" + "".join(f"0,{k}\n" for k in range(200)))
    argv = ["query", str(tmp_path / "r.wd"), "SELECT a.x, b.x FROM r a, r b WHERE a.k = b.k"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: joining 200 partial tuples with 200 matching tuples enumerates "
        "40000 pairs, bound is 1000"
    ]


def test_query_refuses_a_dense_triangle_above_the_bound(tmp_path, capsys, monkeypatch):
    # every edge on 20 values: the tries' fan-outs multiply to 20^3 = 8000
    # triangles, so the binary steps run, and their second step refuses
    monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 1000)
    (tmp_path / "e.wd").write_text(
        'type N = range 0..19;\nstar E(x:N, y:N);\nrel e : E from "e.csv";\n'
    )
    rows = "".join(f"{x},{y}\n" for x in range(20) for y in range(20))
    (tmp_path / "e.csv").write_text("x,y\n" + rows)
    triangle = "SELECT a.x, b.x, c.x FROM e a, e b, e c WHERE a.y = b.x AND b.y = c.x AND c.y = a.x"
    assert run_cli(["query", str(tmp_path / "e.wd"), triangle]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: joining 400 partial tuples with 400 matching tuples enumerates "
        "8000 pairs, bound is 1000"
    ]


def test_query_refuses_a_six_way_cross_product_above_the_bound(
    fixtures_dir, capsys, monkeypatch
):
    # six unlinked copies of attends' 24 tuples: the sixth step would
    # enumerate 24^6 pairs; at the real limit the fifth step would first
    # build 24^5 partial tuples, so the limit is lowered to 10^5
    monkeypatch.setattr("wiring.relations.ENUMERATION_LIMIT", 100_000)
    columns = ", ".join(f"a{k}.student, a{k}.course" for k in range(1, 7))
    aliases = ", ".join(f"attends a{k}" for k in range(1, 7))
    wiki = str(fixtures_dir / "wiki" / "wiki.wd")
    start = time.perf_counter()
    assert run_cli(["query", wiki, f"SELECT {columns} FROM {aliases}"]) == 1
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the cross product of 13824 partial tuples and 24 tuples enumerates "
        "331776 pairs, bound is 100000"
    ]


REORDERED_STAR_SCRIPT = """
type N = range 0..2;
type T = {x, y};
star F(A:N, B:T);
star U(A:N, B:T);
star V(B:T, A:N);
rel v : V from "v.csv";
diagram d(U) -> [F => F] {
  cable a : N;
  cable b : T;
  solder inner1.A -> a;
  solder inner1.B -> b;
  solder out.ret.A -> a;
  solder out.ret.B -> b;
  solder out.arg1.A -> a;
  solder out.arg1.B -> b;
}
setup s = d(v);
"""


def test_fixpoint_reads_a_reordered_input_by_wire_name(tmp_path, capsys):
    # v's star lists U's wires in the other order: the identity setup must
    # still send v's A column to F's A wire.
    (tmp_path / "reordered.wd").write_text(REORDERED_STAR_SCRIPT)
    (tmp_path / "v.csv").write_text("B,A\nx,2\ny,0\n")
    out = tmp_path / "out.csv"
    assert run_cli(["fixpoint", str(tmp_path / "reordered.wd"), "s", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "A,B"
    assert sorted(lines[1:]) == ["0,y", "2,x"]

def test_laws_subcommand(tmp_path, capsys):
    summary = tmp_path / "summary.tsv"
    code = run_cli(["laws", "--cases", "20", "--seed", "4", "--summary", str(summary)])
    assert code == 0
    out = capsys.readouterr().out
    assert "operad-identity: 20 cases, 0 failures" in out
    lines = summary.read_text().splitlines()
    assert all(line.split("\t")[2] == "0" for line in lines)


def test_shipped_fixtures_check(fixtures_dir):
    assert run_cli(["check", str(fixtures_dir / "nand" / "circuits.wd")]) == 0
    assert run_cli(["check", str(fixtures_dir / "wiki" / "wiki.wd")]) == 0
    assert run_cli(["check", str(fixtures_dir / "factorial" / "factorial.wd")]) == 0


def test_wiki_fixture_result(fixtures_dir, capsys):
    assert run_cli(["eval", str(fixtures_dir / "wiki" / "wiki.wd"), "shared_course"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "student,address"
    students = {line.split(",")[0] for line in out[1:]}
    assert students == {"bob", "dave", "frank", "jack"}


def test_rel_and_const_of_one_name_fail_check(tmp_path, capsys):
    # the query would read the const, not x.csv: the script is refused instead
    (tmp_path / "s.wd").write_text(
        'type T = {a, b};\nstar S(value:T);\nrel x : S from "x.csv";\n'
        "const x : T = a;\nquery q = SELECT s.value FROM x s;\n"
    )
    (tmp_path / "x.csv").write_text("value\nb\n")
    assert run_cli(["check", str(tmp_path / "s.wd")]) == 1
    assert "error: 4:7: duplicate rel/const name 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "circuits.wd", "notq"],
        ["query", "circuits.wd", "SELECT n.out FROM nand n"],
        ["dot", "circuits.wd", "copy"],
        ["fixpoint", "reordered.wd", "s"],
    ],
    ids=["eval", "query", "dot", "fixpoint"],
)
def test_unwritable_out_is_user_error(project, capsys, argv):
    (project / "reordered.wd").write_text(REORDERED_STAR_SCRIPT)
    (project / "v.csv").write_text("B,A\nx,2\ny,0\n")
    target = project / "absent" / "out.txt"
    command, script, *rest = argv
    assert run_cli([command, str(project / script), *rest, "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {target}" in err
    assert "internal error" not in err


def test_unwritable_laws_summary_is_user_error(tmp_path, capsys):
    target = tmp_path / "absent" / "summary.tsv"
    assert run_cli(["laws", "--cases", "1", "--summary", str(target)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {target}" in err
    assert "internal error" not in err


def test_negative_law_cases_is_user_error(capsys):
    assert run_cli(["laws", "--cases", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error: cases must be nonnegative" in err
    assert "internal error" not in err


def test_internal_error_while_building_a_diagram_exits_2(project, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("wiring.dsl.TypedWiringDiagram", broken)
    assert run_cli(["check", str(project / "circuits.wd")]) == 2
    assert "internal error: RuntimeError: broken invariant" in capsys.readouterr().err


def test_module_entry_point_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wiring.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "wiring.cli", "check", "missing.wd"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "error: cannot read missing.wd" in done.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("SELECT n.nosuch FROM nand n", "1:10: alias 'n' has no attribute 'nosuch'"),
        ("SELECT n.out FROM ghost n", "1:19: FROM references unknown predicate 'ghost'"),
        ("SELECT z.out FROM nand n", "1:8: reference z.out names unknown alias 'z'"),
        (
            "SELECT n.out FROM nand n\n WHERE n.A = 'maybe'",
            "2:14: constant 'maybe' is outside domain 'Bool' of n.A",
        ),
        ("SELECT n.out FROM nand n, nand n", "1:32: duplicate FROM alias 'n'"),
        ("  SELECT n.out, n.out FROM nand n", "1:19: SELECT list repeats a column"),
    ],
    ids=[
        "unknown-attribute", "unknown-predicate", "unknown-alias", "constant-outside-domain",
        "repeated-alias", "repeated-column",
    ],
)
def test_inline_query_errors_carry_a_position(project, capsys, text, message):
    assert run_cli(["query", str(project / "circuits.wd"), text]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "internal error" not in err


# A second NAND relation and a setup input whose CSV is missing or malformed;
# only the commands that read ``ghost`` may fail on it.
GHOST_RELS = (
    'rel ghost : NAND from "ghost.csv";\n'
    "query ghostnot = SELECT g.A, g.out FROM ghost g WHERE g.A = g.B;\n"
    "union mixed = notq | ghostnot;\n"
)
GHOST_SETUP = 'rel ghost : V from "ghost.csv";\nsetup g = d(ghost);\n'


@pytest.fixture(params=["missing", "malformed"])
def ghost(project, request):
    (project / "reordered.wd").write_text(REORDERED_STAR_SCRIPT)
    (project / "v.csv").write_text("B,A\nx,2\ny,0\n")
    (project / "ghosts.wd").write_text(SCRIPT + GHOST_RELS)
    (project / "ghost_setup.wd").write_text(REORDERED_STAR_SCRIPT + GHOST_SETUP)
    if request.param == "malformed":
        (project / "ghost.csv").write_text("A,B\nx,2,y\n")
    return project


def _run_in(directory, capsys, argv):
    command, script, *rest = argv
    status = run_cli([command, str(directory / script), *rest])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, clean",
    [
        (["eval", "ghosts.wd", "notq"], ["eval", "circuits.wd", "notq"]),
        (["eval", "ghosts.wd", "andq"], ["eval", "circuits.wd", "andq"]),
        (
            ["query", "ghosts.wd", "SELECT n.out FROM nand n WHERE n.A = 'True'"],
            ["query", "circuits.wd", "SELECT n.out FROM nand n WHERE n.A = 'True'"],
        ),
        (["fixpoint", "ghost_setup.wd", "s"], ["fixpoint", "reordered.wd", "s"]),
        (["dot", "ghosts.wd", "ghostnot"], None),
    ],
    ids=["eval", "eval-join", "query", "fixpoint", "dot"],
)
def test_commands_skip_relations_they_do_not_read(ghost, capsys, argv, clean):
    status, out, err = _run_in(ghost, capsys, argv)
    assert status == 0, err
    if clean is not None:
        assert (status, out, err) == _run_in(ghost, capsys, clean)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "ghosts.wd", "ghostnot"],
        ["eval", "ghosts.wd", "mixed"],
        ["query", "ghosts.wd", "SELECT n.out FROM nand n, ghost g WHERE n.A = g.A"],
        ["fixpoint", "ghost_setup.wd", "g"],
        ["check", "ghosts.wd"],
        ["check", "ghost_setup.wd"],
    ],
    ids=["eval", "eval-union-part", "query", "fixpoint", "check", "check-setup-input"],
)
def test_commands_that_read_a_bad_relation_fail(ghost, capsys, argv):
    status, out, err = _run_in(ghost, capsys, argv)
    assert status == 1
    # a header error places the file at its line, a row error at the path
    assert re.search(rf"error: {re.escape(str(ghost / 'ghost.csv'))}(:\d+)?: ", err)
    assert "internal error" not in err


def test_query_is_parsed_before_relations_load(ghost, capsys):
    argv = ["query", "ghosts.wd", "SELECT g.nosuch FROM ghost g"]
    status, _out, err = _run_in(ghost, capsys, argv)
    assert status == 1
    assert "error: 1:10: alias 'g' has no attribute 'nosuch'" in err


def test_run_cli_can_be_reused_in_one_process(project, capsys, monkeypatch):
    # argparse wraps help text to COLUMNS; both sides must use one width
    monkeypatch.setenv("COLUMNS", "80")
    script = str(project / "circuits.wd")
    target = project / "result.csv"
    calls = [
        ["eval", script, "notq", "--bogus"],
        ["fixpoint", script, "s", "--mode", "top"],
        ["--help"],
        ["eval", script, "notq", "--out", str(target)],
        ["eval", script, "notq"],
    ]

    def outcomes(run):
        seen = []
        for argv in calls:
            target.unlink(missing_ok=True)
            seen.append((*run(argv), target.read_text() if target.exists() else None))
        return seen

    def in_process(argv):
        status = run_cli(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    src = os.path.dirname(os.path.dirname(os.path.abspath(wiring.__file__)))
    env = {**os.environ, "PYTHONPATH": src}

    def fresh(argv):
        done = subprocess.run(
            [sys.executable, "-m", "wiring.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    reused = outcomes(in_process)
    assert [seen[0] for seen in reused] == [1, 1, 0, 0, 0]
    assert reused[3][1] == "" and reused[3][3].startswith("A,out\n")
    assert reused[4][1] == reused[3][3] and reused[4][3] is None
    assert reused == outcomes(fresh)


# A declaration that holds an error, which none of the commands below reads,
# and the end of the message that parsing it gives.
UNREAD_DEFECTS = {
    "syntax-error": ("query broken = SELECT FROM nand n;\n", "expected alias, found 'FROM'"),
    "bad-character": ("type Junk = {a, $};\n", "unexpected character '$'"),
    "unknown-star": ('rel lost : GHOST from "lost.csv";\n', "unknown star 'GHOST'"),
    "duplicate-name": ("type Spare = {a};\ntype Spare = {b};\n", "duplicate type name 'Spare'"),
    "const-of-unknown-type": ("const stray : Ghost = a;\n", "unknown type 'Ghost'"),
}


@pytest.mark.parametrize("defect", UNREAD_DEFECTS)
def test_commands_skip_declarations_they_do_not_read(project, capsys, defect):
    text, message_end = UNREAD_DEFECTS[defect]
    (project / "reordered.wd").write_text(REORDERED_STAR_SCRIPT)
    (project / "v.csv").write_text("B,A\nx,2\ny,0\n")
    inline = "SELECT n.out FROM nand n WHERE n.A = 'True'"
    # the defect after the declarations read, then before them
    for place in (lambda script: script + text, lambda script: text + script):
        (project / "defect.wd").write_text(place(SCRIPT))
        (project / "defect_setup.wd").write_text(place(REORDERED_STAR_SCRIPT))
        for argv, clean in [
            (["eval", "defect.wd", "notq"], ["eval", "circuits.wd", "notq"]),
            (["dot", "defect.wd", "copy"], ["dot", "circuits.wd", "copy"]),
            (["query", "defect.wd", inline], ["query", "circuits.wd", inline]),
            (["fixpoint", "defect_setup.wd", "s"], ["fixpoint", "reordered.wd", "s"]),
        ]:
            assert _run_in(project, capsys, argv) == _run_in(project, capsys, clean)
        for script in ("defect.wd", "defect_setup.wd"):
            with pytest.raises(ScriptError) as eager:
                parse_script((project / script).read_text())
            status, out, err = _run_in(project, capsys, ["check", script])
            assert (status, out, err) == (1, "", f"error: {eager.value}\n")
            assert re.fullmatch(rf"error: \d+:\d+: {re.escape(message_end)}\n", err)


def test_a_query_cannot_read_a_rel_declared_after_it(project, capsys):
    (project / "late.wd").write_text(
        SCRIPT + "query early = SELECT l.A FROM late l;\n" + 'rel late : NAND from "nand.csv";\n'
    )
    status, _out, err = _run_in(project, capsys, ["eval", "late.wd", "early"])
    assert status == 1
    assert re.fullmatch(
        r"error: \d+:7: query 'early': FROM references unknown predicate 'late'\n", err
    )
    assert _run_in(project, capsys, ["check", "late.wd"]) == (1, "", err)
    assert _run_in(project, capsys, ["eval", "late.wd", "notq"])[0] == 0


@pytest.mark.parametrize(
    "text, argv, message_end",
    [
        ("query notq = SELECT n.B FROM nand n;\n", ["eval", "notq"], "duplicate query name 'notq'"),
        ("query notq = SELECT n.B FROM nand n;\n", ["dot", "notq"], "duplicate query name 'notq'"),
        ('rel nand : NAND from "nand.csv";\n', ["eval", "andq"], "duplicate rel/const name 'nand'"),
        ("diagram copy(NAND) -> NAND {}\n", ["dot", "copy"], "duplicate diagram name 'copy'"),
    ],
    ids=["query-eval", "query-dot", "rel", "diagram"],
)
def test_reading_a_name_declared_twice_fails(project, capsys, text, argv, message_end):
    (project / "twice.wd").write_text(SCRIPT + text)
    command, name = argv
    status, _out, err = _run_in(project, capsys, [command, "twice.wd", name])
    assert status == 1
    assert re.fullmatch(rf"error: \d+:\d+: {re.escape(message_end)}\n", err)
    assert _run_in(project, capsys, ["check", "twice.wd"]) == (1, "", err)


def test_a_declaration_named_like_an_alias_in_a_read_one_is_parsed(project, capsys):
    # q's alias ``x`` names the broken type, so eval parses that type too
    (project / "r.csv").write_text("w\na\n")
    (project / "alias.wd").write_text(
        "type T = {a, b};\nstar S(w:T);\nrel r : S from \"r.csv\";\n"
        "query q = SELECT x.w FROM r x;\ntype x = {a, $};\n"
    )
    err = "error: 5:14: unexpected character '$'\n"
    assert _run_in(project, capsys, ["check", "alias.wd"]) == (1, "", err)
    assert _run_in(project, capsys, ["eval", "alias.wd", "q"]) == (1, "", err)


def test_query_reports_its_own_syntax_error_before_the_script_s(project, capsys):
    (project / "lost.wd").write_text(
        'type T = {a, b};\nstar S(w:T);\nrel r : GHOST from "r.csv";\n'
    )
    argv = ["query", "lost.wd", "SELECT s.w FROM r s WHERE"]
    err = "error: 1:26: expected alias, found 'end of file'\n"
    assert _run_in(project, capsys, argv) == (1, "", err)


@pytest.mark.parametrize(
    "command, message",
    [
        ("eval", "no query or union named 'lives'"),
        ("dot", "no diagram or query named 'lives'"),
        ("fixpoint", "no setup named 'lives'"),
    ],
)
def test_a_name_is_looked_up_only_among_the_kinds_a_command_reads(
    tmp_path, fixtures_dir, capsys, command, message
):
    # line 15 of the fixture declares ``rel lives``, here with a typo
    lines = (fixtures_dir / "wiki" / "wiki.wd").read_text().split("\n")
    assert lines[14] == 'rel lives : LIVES from "lives.csv";'
    lines[14] = 'rel lives : LIVES frm "lives.csv";'
    (tmp_path / "w.wd").write_text("\n".join(lines))
    err = "error: 15:19: expected 'from', found 'frm'\n"
    assert _run_in(tmp_path, capsys, ["check", "w.wd"]) == (1, "", err)
    assert _run_in(tmp_path, capsys, [command, "w.wd", "lives"]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["eval", "dot"])
def test_a_read_declaration_s_own_name_does_not_choose_other_name_spaces(
    tmp_path, fixtures_dir, capsys, command
):
    # ``query lives`` reads only its own name space, not the broken ``rel lives``
    lines = (fixtures_dir / "wiki" / "wiki.wd").read_text().rstrip("\n").split("\n")
    assert lines[14] == 'rel lives : LIVES from "lives.csv";'
    query = "query lives = SELECT a.student FROM attends a;"
    (tmp_path / "attends.csv").write_text((fixtures_dir / "wiki" / "attends.csv").read_text())
    (tmp_path / "clean.wd").write_text("\n".join(lines + [query, ""]))
    lines[14] = 'rel lives : LIVES frm "lives.csv";'
    (tmp_path / "w.wd").write_text("\n".join(lines + [query, ""]))
    clean = _run_in(tmp_path, capsys, [command, "clean.wd", "lives"])
    assert clean[0] == 0 and clean[1]
    assert _run_in(tmp_path, capsys, [command, "w.wd", "lives"]) == clean
    err = "error: 15:19: expected 'from', found 'frm'\n"
    assert _run_in(tmp_path, capsys, ["check", "w.wd"]) == (1, "", err)
    (tmp_path / "w.wd").write_text("\n".join(lines + [query, query, ""]))
    status, _out, err = _run_in(tmp_path, capsys, [command, "w.wd", "lives"])
    assert (status, err) == (1, f"error: {len(lines) + 2}:7: duplicate query name 'lives'\n")
