"""End-to-end contracts of ``wd`` and the shipped scripts, on the inputs a
user gives them: the scripts' output, the wiki 4-cycle under several
SELECT lists and read back, the NAND fixture beside a declaration that
``eval`` does not read, bad input as a user error, the bound messages at
the real ``ENUMERATION_LIMIT``, and output that does not depend on the
hash seed.  Everything runs in-process through ``run_cli`` except the
scripts and the hash-seed pairs, which need a fresh interpreter, and the
refusals at the real limit, which run in one under a timeout."""

import ast
import os
import pathlib
import re
import subprocess
import shutil
import sys

import pytest

import wiring
from wiring.cli import run_cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(os.path.abspath(wiring.__file__)))
WIKI = ROOT / "fixtures" / "wiki" / "wiki.wd"

# a star of three relations on the student cable: binary join steps
STAR = (
    "SELECT a.student, a.course, g.gender, l.address FROM attends a, gender g, lives l "
    "WHERE a.student = g.student AND a.student = l.student"
)
# pairs of students linked by a 4-cycle of shared courses: the generic join
CYCLE_FROM = (
    "FROM attends a1, attends a2, attends a3, attends a4 WHERE a1.course = a2.course "
    "AND a2.student = a3.student AND a3.course = a4.course AND a4.student = a1.student"
)
CYCLIC = f"SELECT a1.student, a3.student {CYCLE_FROM}"


def _python(argv, timeout=120, **env):
    """Run ``python argv`` from the repository root with ``src`` on the path;
    a run longer than ``timeout`` seconds fails the test."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=timeout
    )


def _wd(capsys, argv):
    status = run_cli(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["nand_to_and.py"], ["factorial_experiment.py", "--limit", "24"]],
    ids=["nand-to-and", "factorial-24"],
)
def test_shipped_script_runs(argv):
    done = _python([str(ROOT / "scripts" / argv[0]), *argv[1:]])
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""


def test_factorial_experiment_at_limit_400_ends_both_chains_at_a_fixed_point():
    done = _python([str(ROOT / "scripts" / "factorial_experiment.py"), "--limit", "400"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().count("is_fixed_point: True") == 2


def test_wiki_star_query_with_a_constant_answers(capsys):
    query = (
        "SELECT a.student, g.gender FROM attends a, gender g "
        "WHERE a.student = g.student AND a.course = 'math'"
    )
    # the five students attends.csv lists for math, with gender.csv's genders
    want = "student,gender\nalice,female\nbob,male\ncarol,female\ndave,male\ngrace,female\n"
    assert _wd(capsys, ["query", str(WIKI), query]) == (0, want, "")


@pytest.mark.parametrize(
    "select, rows",
    [
        ("a1.student, a3.student", 62),
        ("a3.student, a1.student", 62),
        ("a3.student, a1.student, a1.course", 88),
        ("a1.course, a3.course", 37),
    ],
    ids=["cable-order", "out-of-order", "with-a-course", "students-dropped"],
)
def test_wiki_four_cycle_under_each_select_list(tmp_path, capsys, select, rows):
    out = tmp_path / "sel.csv"
    argv = ["query", str(WIKI), f"SELECT {select} {CYCLE_FROM}", "--out", str(out)]
    assert _wd(capsys, argv) == (0, "", "")
    assert len(out.read_text().splitlines()) == rows + 1


def test_wiki_four_cycle_out_file_reads_back(tmp_path, capsys):
    assert _wd(capsys, ["query", str(WIKI), CYCLIC, "--out", str(tmp_path / "cyc.csv")])[0] == 0
    (tmp_path / "cyc.wd").write_text(
        "type STUDENT = {alice, bob, carol, dave, erin, frank, grace, henry, iris, jack};\n"
        "star P(a1_student:STUDENT, a3_student:STUDENT);\n"
        'rel p : P from "cyc.csv";\n'
    )
    status, out, err = _wd(capsys, ["check", str(tmp_path / "cyc.wd")])
    assert (status, err) == (0, "")
    assert ": ok (" in out


CIRCUITS = ROOT / "fixtures" / "nand" / "circuits.wd"


@pytest.mark.parametrize(
    "before, after, message",
    [
        ("type Junk = {a, $};\n", "", "1:17: unexpected character '$'"),
        (
            "",
            "query broken = SELECT FROM nand n;\n",
            f"{len(CIRCUITS.read_text().splitlines()) + 1}:23: expected alias, found 'FROM'",
        ),
        (
            "",
            'rel ghost : NAND from "ghost.csv";\n',
            "{dir}/ghost.csv: cannot read: No such file or directory",
        ),
    ],
    ids=["junk-first", "broken-last", "ghost-rel"],
)
def test_circuits_with_an_unread_defect_evaluates_as_before(
    tmp_path, capsys, before, after, message
):
    # eval reads only notq's declarations; check reads them all
    shutil.copy(CIRCUITS.with_name("nand.csv"), tmp_path)
    (tmp_path / "defect.wd").write_text(before + CIRCUITS.read_text() + after)
    clean = _wd(capsys, ["eval", str(CIRCUITS), "notq"])
    assert clean[0] == 0
    assert _wd(capsys, ["eval", str(tmp_path / "defect.wd"), "notq"]) == clean
    expected = "error: " + message.replace("{dir}", str(tmp_path)) + "\n"
    assert _wd(capsys, ["check", str(tmp_path / "defect.wd")]) == (1, "", expected)


BAD_CSV_SCRIPT = 'type B = {yes, no};\nstar S(x:B, y:B);\nrel r : S from "%s.csv";\n'


@pytest.mark.parametrize(
    "files, message",
    [
        (
            {
                "bad_value.wd": BAD_CSV_SCRIPT % "bad_value",
                "bad_value.csv": "x,y\nyes,no\nno,maybe\n",
            },
            "{dir}/bad_value.csv: row 2, column 'y': value 'maybe' is outside domain 'B'",
        ),
        (
            {
                "bad_count.wd": BAD_CSV_SCRIPT % "bad_count",
                "bad_count.csv": "x,y\nyes,no\nno\n",
            },
            "{dir}/bad_count.csv: row 2 has 1 cells, expected 2",
        ),
        (
            {"wide_range.wd": "type N = range 0..999999999999;\n"},
            "1:16: range 0..999999999999 has 1000000000000 values, bound is 1000000",
        ),
    ],
    ids=["bad-value", "bad-count", "wide-range"],
)
def test_bad_input_is_a_user_error_with_a_position(tmp_path, capsys, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (script,) = [name for name in files if name.endswith(".wd")]
    expected = "error: " + message.replace("{dir}", str(tmp_path)) + "\n"
    assert _wd(capsys, ["check", str(tmp_path / script)]) == (1, "", expected)


def _rows(header, rows):
    return header + "\n" + "".join(f"{row}\n" for row in rows)


@pytest.mark.parametrize(
    "decls, csv, query, message",
    [
        (
            "type N = range 0..3999;\nstar R(x:N);",
            _rows("x", range(4000)),
            "SELECT a.x, b.x FROM r a, r b",
            "the cross product of 4000 partial tuples and 4000 tuples enumerates "
            "16000000 pairs, bound is 10000000",
        ),
        (
            "type N = range 0..3999;\nstar R(k:N, x:N);",
            _rows("k,x", (f"0,{x}" for x in range(4000))),
            "SELECT a.x, b.x FROM r a, r b WHERE a.k = b.k",
            "joining 4000 partial tuples with 4000 matching tuples enumerates "
            "16000000 pairs, bound is 10000000",
        ),
        (
            # the complete graph on 250 values: its tries' fan-outs multiply
            # to 250^3 and its cover bound is 62500^1.5, both over 10^7, so
            # the generic join hands it to the binary steps, whose second
            # step refuses
            "type N = range 0..249;\nstar R(x:N, y:N);",
            _rows("x,y", (f"{x},{y}" for x in range(250) for y in range(250))),
            "SELECT a.x, b.x, c.x FROM r a, r b, r c "
            "WHERE a.y = b.x AND b.y = c.x AND c.y = a.x",
            "joining 62500 partial tuples with 62500 matching tuples enumerates "
            "15625000 pairs, bound is 10000000",
        ),
    ],
    ids=["keyless", "keyed", "dense-triangle"],
)
def test_a_step_over_the_real_bound_is_refused_before_it_builds(
    tmp_path, decls, csv, query, message
):
    # in a fresh interpreter under a timeout: were the bound not applied,
    # the step would build over 10^7 tuples
    (tmp_path / "r.wd").write_text(f'{decls}\nrel r : R from "r.csv";\n')
    (tmp_path / "r.csv").write_text(csv)
    done = _python(["-m", "wiring.cli", "query", str(tmp_path / "r.wd"), query], timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, b"", f"error: {message}\n".encode())


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "wiring.cli", "check", "fixtures/wiki/wiki.wd"],
        ["-m", "wiring.cli", "dot", "fixtures/nand/circuits.wd", "notgate"],
        ["-m", "wiring.cli", "laws", "--cases", "50", "--seed", "3", "--summary", "{tmp}"],
        ["-m", "wiring.cli", "query", "fixtures/wiki/wiki.wd", STAR],
        ["-m", "wiring.cli", "query", "fixtures/wiki/wiki.wd", CYCLIC],
        ["scripts/factorial_experiment.py", "--limit", "120"],
    ],
    ids=["check", "dot", "laws", "star-query", "cyclic-query", "factorial-120"],
)
def test_output_does_not_depend_on_the_hash_seed(tmp_path, argv):
    # composition and canonical forms must not leak set or hash order
    seen = []
    for seed in ("1", "2"):
        summary = tmp_path / f"laws.{seed}.tsv"
        done = _python([arg.replace("{tmp}", str(summary)) for arg in argv], PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        seen.append((done.stdout, done.stderr, summary.read_bytes() if summary.exists() else None))
    assert seen[0] == seen[1]


def test_every_source_file_parses_at_the_least_python_version_supported():
    """No file under ``src``, ``scripts``, ``tests`` or ``perfbench`` uses
    syntax newer than ``requires-python`` allows, whatever interpreter runs
    the tests."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = [p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    assert len(paths) > 20
    for path in sorted(paths):
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(int(major), int(minor)))
