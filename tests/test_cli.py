import time

import pytest

from wiring.cli import run_cli

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


def test_unknown_name_is_user_error(project, capsys):
    assert run_cli(["eval", str(project / "circuits.wd"), "ghost"]) == 1
    assert "ghost" in capsys.readouterr().err


def test_missing_file_is_user_error(tmp_path, capsys):
    assert run_cli(["check", str(tmp_path / "absent.wd")]) == 1


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
    assert "iterations=" in captured.err
    assert run_cli(["fixpoint", str(tmp_path / "factorial.wd"), "fact", "--mode", "lfp"]) == 0


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
