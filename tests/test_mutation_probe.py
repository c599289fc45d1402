"""A seeded mutation probe of ``wd`` on the shipped fixtures.

Each case mutates one input of a fixture command and runs the command
through ``run_cli``: the script, by inserting, deleting or copying
characters; one of its CSV files, by inserting a byte-order mark, a NUL, a
``\\xff`` byte, a CR, a stray quote or a stray comma; or the text of an
inline ``wd query``.  Whatever the mutation, the command exits 0 or 1
with no traceback, and on exit 1 it prints exactly one ``error:`` line,
which places the error: a script's at its ``line:col``, a CSV file's at its
path and a row, its header's columns or a ``line:col``.  An inline query
whose names do not resolve is placed at the name or literal that its
message quotes.  The counts and seeds are fixed; a case that breaks a rule
is a fault of the program.

What ``eval --out`` and ``query --out`` write, ``wd check`` reads back
through a ``rel`` declared on the result's star.
"""

import pathlib
import random
import re
import shutil
import string

import pytest

from oracles import _LITERAL_TOKEN_RE
from wiring.cli import run_cli
from wiring.dsl import parse_script, parse_select_text, resolve_query_text
from wiring.query import compile_query

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# each fixture's script, the commands run on it, and inline queries
CASES = {
    "wiki": (
        "wiki.wd",
        [["check"], ["eval", "shared_course"], ["dot", "shared_course"]],
        [
            "SELECT a.student, g.gender FROM attends a, gender g "
            "WHERE a.student = g.student AND a.course = 'math'",
            "SELECT a1.student, a3.student FROM attends a1, attends a2, attends a3, "
            "attends a4 WHERE a1.course = a2.course AND a2.student = a3.student "
            "AND a3.course = a4.course AND a4.student = a1.student",
        ],
    ),
    "nand": (
        "circuits.wd",
        [["check"], ["eval", "notq"], ["eval", "andq"], ["dot", "notgate"]],
        ["SELECT n.A, n.out FROM nand n WHERE n.A = n.B AND n.out = 'True'"],
    ),
    "factorial": (
        "factorial.wd",
        [["check"], ["fixpoint", "fact"], ["fixpoint", "fact", "--mode", "lfp"]],
        ["SELECT d.A, m.C FROM dec d, mul m WHERE d.A' = m.A AND m.B' = 2"],
    ),
}

SCRIPT_CHARS = string.ascii_letters + string.digits + " \n\t;:,.(){}[]'\"#=|>-_$"
CSV_BYTES = [b"\xef\xbb\xbf", b"\x00", b"\xff", b"\r", b'"', b","]

SCRIPT_PLACE = r"\d+:\d+: .*"
CSV_PLACE = (
    r"{csv}(:\d+:\d+: not UTF-8 text: .*|: row \d+.*|: cannot read: .*"
    r"|: missing header row|:\d+: header repeats a column|:\d+: (missing|unexpected) columns .*)"
)
NAME_ERROR = r"no (query or union|diagram or query|setup) named '.*'"
# an inline query's resolve errors, each with the name or literal it quotes
RESOLVE_ERRORS = [
    r"FROM references unknown predicate '(.*)'",
    r"reference \S+ names unknown alias '(.*)'",
    r"alias '.*' has no attribute '(.*)'",
    r"duplicate FROM alias '(.*)'",
    r"constant (.*) is outside domain '.*' of \S+",
]


def _mutate_text(rng, text):
    """``text`` with one to three characters inserted, runs deleted or
    slices copied elsewhere."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        kind = rng.choice(["insert", "delete", "copy"])
        if kind == "insert":
            text = text[:at] + rng.choice(SCRIPT_CHARS) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + rng.randint(1, 4) :]
        else:
            start = rng.randrange(len(text))
            piece = text[start : start + rng.randint(1, 12)]
            text = text[:at] + piece + text[at:]
    return text


def _mutate_bytes(rng, data):
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(CSV_BYTES) + data[at:]
    return data


def _run(capsys, argv):
    status = run_cli(argv)
    out, err = capsys.readouterr()
    return status, out, err


def _check_result(status, out, err, placed):
    assert status in (0, 1), err
    assert "Traceback" not in out + err
    if status == 0:
        assert "error:" not in err
        return
    # one line: ``.`` does not match a line break
    assert re.fullmatch(f"error: ({placed})\n", err), err


@pytest.fixture
def copies(tmp_path):
    """A fresh copy of each fixture directory."""
    for name in CASES:
        shutil.copytree(FIXTURES / name, tmp_path / name)
    return tmp_path


def _argv(copies, fixture, command):
    script = str(copies / fixture / CASES[fixture][0])
    return [command[0], script, *command[1:]]


def _query_argv(copies, fixture, text, *rest):
    # ``--`` keeps argparse from reading a query that starts with ``-`` as an option
    return ["query", *rest, "--", str(copies / fixture / CASES[fixture][0]), text]


def test_mutated_scripts_fail_with_one_placed_error(copies, capsys):
    rng = random.Random(20260)
    # a mutated ``rel`` may name any file under the copies
    csv_place = CSV_PLACE.format(csv=re.escape(str(copies)) + "/.*")
    for _ in range(160):
        fixture = rng.choice(sorted(CASES))
        path = copies / fixture / CASES[fixture][0]
        original = path.read_text(encoding="utf-8")
        path.write_text(_mutate_text(rng, original), encoding="utf-8")
        commands, queries = CASES[fixture][1], CASES[fixture][2]
        which = rng.randrange(len(commands) + 1)
        if which < len(commands):
            argv = _argv(copies, fixture, commands[which])
        else:
            argv = _query_argv(copies, fixture, rng.choice(queries))
        status, out, err = _run(capsys, argv)
        _check_result(status, out, err, f"{SCRIPT_PLACE}|{csv_place}|{NAME_ERROR}")
        path.write_text(original, encoding="utf-8")


def test_mutated_csv_files_fail_with_one_placed_error(copies, capsys):
    rng = random.Random(20261)
    for _ in range(120):
        fixture = rng.choice(sorted(CASES))
        path = rng.choice(sorted((copies / fixture).glob("*.csv")))
        original = path.read_bytes()
        path.write_bytes(_mutate_bytes(rng, original))
        commands = CASES[fixture][1]
        argv = _argv(copies, fixture, rng.choice(commands))
        status, out, err = _run(capsys, argv)
        _check_result(status, out, err, CSV_PLACE.format(csv=re.escape(str(path))))
        path.write_bytes(original)


def _round_trip(copies, capsys, fixture, out_path, star):
    """``wd check`` of the fixture script with a ``rel`` on ``star`` read
    from ``out_path``."""
    script = copies / fixture / CASES[fixture][0]
    columns = ", ".join(f"{w}:{star.domain(w).name}" for w in star.wires)
    back = copies / fixture / "back.wd"
    back.write_text(
        script.read_text(encoding="utf-8")
        + f"\nstar BACK_STAR({columns});\nrel back : BACK_STAR from {out_path.name!r};\n",
        encoding="utf-8",
    )
    status, out, err = _run(capsys, ["check", str(back)])
    assert (status, err) == (0, ""), err
    assert ": ok (" in out


def _placed_at_what_it_quotes(text, err):
    """Whether ``err`` is a resolve error of the inline query ``text``,
    which must then be placed at the token of the name or literal that it
    quotes."""
    line, column, message = re.fullmatch(r"error: (\d+):(\d+): (.*)\n", err).groups()
    quoted = next(filter(None, (re.fullmatch(p, message) for p in RESOLVE_ERRORS)), None)
    if quoted is None:
        return False
    offset = sum(len(row) + 1 for row in text.split("\n")[: int(line) - 1]) + int(column) - 1
    m = _LITERAL_TOKEN_RE.match(text, offset)
    value = {"int": int, "string": lambda tok: tok[1:-1]}.get(m.lastgroup, str)(m.group())
    assert quoted[1] in (m.group(), repr(value)), (text, err)
    return True


def test_mutated_inline_queries_fail_with_one_placed_error(copies, capsys):
    rng = random.Random(20262)
    placed = 0
    for _ in range(120):
        fixture = rng.choice(sorted(CASES))
        text = _mutate_text(rng, rng.choice(CASES[fixture][2]))
        status, out, err = _run(capsys, _query_argv(copies, fixture, text))
        _check_result(status, out, err, SCRIPT_PLACE)
        placed += status == 1 and _placed_at_what_it_quotes(text, err)
    assert placed >= 10


def _literal(value):
    return str(value) if isinstance(value, int) else f"'{value}'"


def _random_query(rng, script):
    """A SELECT over one or two of the script's rels, with up to two
    equalities between attributes of one domain or with a constant."""
    tables = [(rng.choice(sorted(script.relations)), f"t{k}") for k in range(rng.randint(1, 2))]
    attrs = [
        (f"{alias}.{w}", script.relations[pred].star.domain(w))
        for pred, alias in tables
        for w in script.relations[pred].star.wires
    ]
    select = [ref for ref, _domain in rng.sample(attrs, rng.randint(1, min(3, len(attrs))))]
    conditions = []
    for _ in range(rng.randint(0, 2)):
        ref, domain = rng.choice(attrs)
        same = [other for other, d in attrs if d == domain and other != ref]
        if same and rng.random() < 0.6:
            conditions.append(f"{ref} = {rng.choice(same)}")
        else:
            conditions.append(f"{ref} = {_literal(rng.choice(domain.values))}")
    text = f"SELECT {', '.join(select)} FROM {', '.join(f'{p} {a}' for p, a in tables)}"
    return text + "".join(f" {'AND' if k else 'WHERE'} {c}" for k, c in enumerate(conditions))


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_every_result_written_reads_back(copies, capsys, fixture):
    rng = random.Random(f"read back {fixture}")
    script_path = copies / fixture / CASES[fixture][0]
    script = parse_script(script_path.read_text(encoding="utf-8"))
    out_path = copies / fixture / "out.csv"
    for name, query in script.queries.items():
        status, _out, err = _run(capsys, ["eval", str(script_path), name, "--out", str(out_path)])
        assert (status, err) == (0, "")
        _round_trip(copies, capsys, fixture, out_path, compile_query(query, script).diagram.outer)
    for text in CASES[fixture][2] + [_random_query(rng, script) for _ in range(20)]:
        status, _out, err = _run(capsys, _query_argv(copies, fixture, text, "--out", str(out_path)))
        assert (status, err) == (0, ""), text
        query = resolve_query_text(text, parse_select_text(text), script)
        _round_trip(copies, capsys, fixture, out_path, compile_query(query, script).diagram.outer)
