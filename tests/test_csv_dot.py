import io
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import csv_oracle, csv_relation_oracle
from strategies import typed_and_relations
from wiring.csvio import load_csv_relation, write_relation_csv
from wiring.dot import emit_dot
from wiring.dsl import parse_script
from wiring.errors import CsvFormatError, ScriptError
from wiring.relations import Relation
from wiring.stars import Star, WiringDiagram, canonicalize, identity_diagram
from wiring.typed import TypedStar, ValueDomain


class TestCsvLoad:
    def test_nand_truth_table(self, tmp_path, nand_star):
        path = tmp_path / "nand.csv"
        path.write_text("A,B,out\nTrue,True,False\nTrue,False,True\nFalse,True,True\nFalse,False,True\n")
        rel = load_csv_relation(path, nand_star)
        assert len(rel) == 4
        assert ("True", "True", "False") in rel.tuples

    def test_column_order_is_free(self, tmp_path, nand_star):
        path = tmp_path / "nand.csv"
        path.write_text("out,B,A\nFalse,True,True\n")
        rel = load_csv_relation(path, nand_star)
        assert rel.tuples == frozenset({("True", "True", "False")})

    def test_duplicate_rows_collapse(self, tmp_path, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        path = tmp_path / "r.csv"
        path.write_text("x\nTrue\nTrue\nFalse\n")
        assert len(load_csv_relation(path, star)) == 2

    def test_empty_data_section(self, tmp_path, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        path = tmp_path / "r.csv"
        path.write_text("x\n")
        assert load_csv_relation(path, star).is_empty

    def _error(self, path, text, star) -> str:
        path.write_text(text)
        with pytest.raises(CsvFormatError) as err:
            load_csv_relation(path, star)
        return str(err.value)

    def test_value_outside_domain_reports_row(self, tmp_path, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        path = tmp_path / "r.csv"
        assert self._error(path, "x\nTrue\nFalse\nmaybe\n", star) == (
            f"{path}:4: row 3, column 'x': value 'maybe' is outside domain 'Bool'"
        )

    def test_cell_count_error_before_later_domain_error(self, tmp_path, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        path = tmp_path / "r.csv"
        assert self._error(path, "x\nTrue\nTrue,False\nmaybe\n", star) == (
            f"{path}:3: row 2 has 2 cells, expected 1"
        )

    def test_domain_error_before_later_cell_count_error(self, tmp_path, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        path = tmp_path / "r.csv"
        assert self._error(path, "x\nTrue\nmaybe\nTrue,False\n", star) == (
            f"{path}:3: row 2, column 'x': value 'maybe' is outside domain 'Bool'"
        )

    def test_row_error_gives_the_row_s_line(self, tmp_path):
        # blank lines before the header and between the rows count
        star = TypedStar.uniform(["x"], ValueDomain("T", ("a", "b")))
        path = tmp_path / "r.csv"
        assert self._error(path, "\nx\n\na\n\nc\n", star) == (
            f"{path}:6: row 2, column 'x': value 'c' is outside domain 'T'"
        )
        assert self._error(path, "\r\nx\r\n\ra\r\na,b\n", star) == (
            f"{path}:5: row 2 has 2 cells, expected 1"
        )

    def test_domain_error_names_the_star_wire_in_a_reordered_file(
        self, tmp_path, nand_star
    ):
        # 'out' comes first in the file, but a row's cells are checked in
        # the order of the star's wires, so 'B' is reported
        path = tmp_path / "r.csv"
        text = "out,B,A\nFalse,True,True\nmaybe,maybe,False\n"
        assert self._error(path, text, nand_star) == (
            f"{path}:3: row 2, column 'B': value 'maybe' is outside domain 'Bool'"
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_accepts_and_rejects_as_the_row_oracle(self, data, tmp_path_factory):
        domains = [
            ValueDomain("Bit", (0, 1)),
            ValueDomain("Mixed", (1, "a")),
            ValueDomain("Text", ("a", "b", "True")),
        ]
        wires = data.draw(st.lists(st.sampled_from("xyz"), unique=True, min_size=1, max_size=3))
        star = TypedStar(Star(wires), {w: data.draw(st.sampled_from(domains)) for w in wires})
        header = data.draw(st.permutations(wires))
        cell = st.sampled_from(["0", "1", " 1", "-1", "01", "2", "a", "b", "True", ""])
        width = st.one_of(st.just(len(wires)), st.integers(1, 4))
        rows = data.draw(
            st.lists(width.flatmap(lambda n: st.lists(cell, min_size=n, max_size=n)), max_size=6)
        )
        text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        path.write_text(text, encoding="utf-8")
        expected = csv_oracle(path, text, star)
        if isinstance(expected, frozenset):
            assert load_csv_relation(path, star).tuples == expected
        else:
            with pytest.raises(CsvFormatError) as err:
                load_csv_relation(path, star)
            assert str(err.value) == expected

    def test_missing_column_rejected(self, tmp_path, nand_star):
        path = tmp_path / "r.csv"
        path.write_text("A,B\nTrue,True\n")
        with pytest.raises(CsvFormatError, match="missing columns"):
            load_csv_relation(path, nand_star)

    def test_extra_column_rejected(self, tmp_path, nand_star):
        path = tmp_path / "r.csv"
        path.write_text("A,B,out,extra\nTrue,True,False,1\n")
        with pytest.raises(CsvFormatError, match="unexpected columns"):
            load_csv_relation(path, nand_star)

    def test_integer_tokens_become_ints(self, tmp_path):
        dom = ValueDomain("N", range(-2, 10))
        star = TypedStar.uniform(["n"], dom)
        path = tmp_path / "r.csv"
        path.write_text("n\n3\n-2\n")
        assert load_csv_relation(path, star).tuples == frozenset({(3,), (-2,)})

    def test_non_ascii_digits_are_text(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("n\n²\n", encoding="utf-8")
        text = TypedStar.uniform(["n"], ValueDomain("T", ("²", "2")))
        assert load_csv_relation(path, text).tuples == frozenset({("²",)})
        numbers = TypedStar.uniform(["n"], ValueDomain("N", range(10)))
        with pytest.raises(CsvFormatError, match="row 1, column 'n'"):
            load_csv_relation(path, numbers)

    def test_unreadable_file_names_path(self, tmp_path, bool_domain):
        star = TypedStar.uniform(["x"], bool_domain)
        with pytest.raises(CsvFormatError, match="absent.csv: cannot read"):
            load_csv_relation(tmp_path / "absent.csv", star)
        # lines are counted from the header, blank ones and any line ending too
        for data, position in [
            (b"x\nTr\xfce\n", "2:3"),
            (b"\xef\xbb\xbfx\r\n\r\n\xffalse\r\n", "3:1"),
        ]:
            latin1 = tmp_path / "latin1.csv"
            latin1.write_bytes(data)
            with pytest.raises(CsvFormatError) as err:
                load_csv_relation(latin1, star)
            assert str(err.value) == f"{latin1}:{position}: not UTF-8 text: invalid start byte"

    def test_byte_order_mark_is_ignored(self, tmp_path, nand_star):
        text = "out,A,B\nTrue,False,False\nFalse,True,True\n"
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        got = load_csv_relation(marked, nand_star)
        assert got == load_csv_relation(plain, nand_star) and len(got) == 2


DOMAINS = [
    ValueDomain("Range", range(-1, 8)),
    ValueDomain("Text", ("a", "b", "True", "²", "+1", "1_0", "-")),
    ValueDomain("Mixed", (0, 7, "a", "+1")),
]
# cells that read as a value of each domain; ANY_CELL mixes in misfits
FITTING_CELLS = {
    "Range": ["0", "7", "007", "-0", "-1", " 3 ", "5\t"],
    "Text": ["a", "b", " True", "²", "+1", "1_0", "-"],
    "Mixed": ["0", "-0", "007", "a", "+1", " 7"],
}
ANY_CELL = ["0", "7", "-1", "+1", "1_0", "²", "a", "b", "True", "-", "", "9", "x y"]


def _csv_case(rng):
    """A star of one to three wires and the text of a file for it: its
    header sometimes wrong, its rows sometimes of the wrong width or with
    a misfit cell, between blank lines, after a byte-order mark and with
    either line ending."""
    wires = rng.sample("xyz", rng.randint(1, 3))
    star = TypedStar(Star(wires), {w: rng.choice(DOMAINS) for w in wires})
    header = rng.sample(wires, len(wires))
    if rng.random() < 0.1:
        header[rng.randrange(len(header))] = rng.choice(["x", "y", "z", "", "w"])
    if rng.random() < 0.06:
        header.append(rng.choice([*header, "w"]))
    lines = [" , ".join(header) if rng.random() < 0.2 else ",".join(header)]
    for _ in range(rng.randint(0, 12)):
        cells = [
            rng.choice(ANY_CELL if rng.random() < 0.03 else FITTING_CELLS[star.domain(w).name])
            if w in wires
            else rng.choice(ANY_CELL)
            for w in header
        ]
        if rng.random() < 0.05:  # a short row, kept nonblank, or a long one
            short = rng.random() < 0.5
            cells = (cells[: rng.randint(0, len(cells) - 1)] or [""]) if short else cells + ["a"]
        lines.extend([rng.choice(["", "  ", "\r"])] * (rng.random() < 0.1))
        lines.append(",".join(cells))
        lines.extend(lines[-1:] * (rng.random() < 0.15))  # a duplicate row
    lines[:0] = [""] * (rng.random() < 0.1) * rng.randint(1, 2)
    end = rng.choice(["\n", "\r\n"])
    text = end.join(lines) + end * (rng.random() < 0.8)
    return star, "\ufeff" * (rng.random() < 0.2) + text


def test_loader_matches_the_literal_oracle_on_generated_files(tmp_path):
    rng = random.Random(30)
    path = tmp_path / "r.csv"
    for _ in range(600):
        star, text = _csv_case(rng)
        path.write_bytes(text.encode("utf-8"))
        expected = csv_relation_oracle(text, star)
        if isinstance(expected, frozenset):
            assert load_csv_relation(path, star).tuples == expected, text
        else:
            with pytest.raises(CsvFormatError) as err:
                load_csv_relation(path, star)
            assert str(err.value) == f"{path}{expected}", text


class TestCsvWrite:
    def test_sorted_deterministic_output(self, bool_domain):
        star = TypedStar.uniform(["a", "b"], bool_domain)
        rel = Relation(star, [("True", "False"), ("False", "True"), ("False", "False")])
        first, second = io.StringIO(), io.StringIO()
        write_relation_csv(rel, first)
        write_relation_csv(rel, second)
        assert first.getvalue() == second.getvalue()
        lines = first.getvalue().splitlines()
        assert lines[0] == "a,b"
        assert lines[1:] == sorted(lines[1:])

    @settings(max_examples=30, deadline=None)
    @given(case=typed_and_relations())
    def test_round_trips_through_files(self, case, tmp_path_factory):
        _twd, rels = case
        tmp = tmp_path_factory.mktemp("csv")
        for i, rel in enumerate(rels):
            if not rel.star.wires:
                continue
            path = tmp / f"r{i}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                write_relation_csv(rel, fh)
            assert load_csv_relation(path, rel.star) == rel


def _literal(value) -> str:
    return str(value) if isinstance(value, int) else f"'{value}'"


def _dsl_accepts(value) -> bool:
    try:
        parse_script(f"type T = {{{_literal(value)}}};\n")
    except ScriptError:
        return False
    return True


class TestCsvRoundTripOfScriptDomains:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.integers(-20, 20), st.text(alphabet="ab1- ,\t\r", max_size=3)),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        data=st.data(),
    )
    def test_written_relation_loads_back(self, values, data, tmp_path_factory):
        accepted = [v for v in values if _dsl_accepts(v)]
        assume(accepted)
        wires = ["x", "y"][: data.draw(st.integers(1, 2))]
        script = parse_script(
            f"type T = {{{', '.join(map(_literal, accepted))}}};\n"
            f"star S({', '.join(f'{w}:T' for w in wires)});\n"
        )
        star = script.stars["S"]
        column = st.sampled_from(script.domains["T"].values)
        rel = Relation(star, data.draw(st.lists(st.tuples(*(column for _ in wires)))))
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_relation_csv(rel, fh)
        assert load_csv_relation(path, star) == rel


class TestDot:
    def test_identity_counts(self):
        star = Star(["a", "b", "c"])
        text = emit_dot(identity_diagram(star))
        assert text.count("subgraph cluster_") == 1
        assert text.count("shape=circle") == 3
        assert text.count(" -- ") == 6

    def test_three_star_figure(self):
        wd = WiringDiagram(
            inner=(Star("rst"), Star("uv"), Star("wxyz")),
            outer=Star("abcde"),
            cables=(1, 2, 3, 4, 5, 6),
            inner_map={
                (0, "r"): 2, (0, "s"): 1, (0, "t"): 3,
                (1, "u"): 3, (1, "v"): 4,
                (2, "w"): 1, (2, "x"): 4, (2, "y"): 5, (2, "z"): 6,
            },
            outer_map={"a": 1, "b": 2, "c": 5, "d": 6, "e": 6},
        )
        text = emit_dot(wd)
        assert text.count("subgraph cluster_") == 3
        assert text.count("shape=circle") == 6

    def test_same_morphism_renders_identically(self):
        star = Star(["a"])
        wd = identity_diagram(star)
        renamed = WiringDiagram(
            wd.inner, wd.outer, ("weird",), {(0, "a"): "weird"}, {"a": "weird"}
        )
        assert emit_dot(wd) == emit_dot(renamed)
        assert emit_dot(wd) == emit_dot(canonicalize(wd))
