"""Reading relations from CSV files and writing results back out.

Dialect: UTF-8 text, a leading byte-order mark ignored, comma separator,
first line is the header, values are atomic tokens with no quoting.
Tokens of ASCII digits, with an optional leading minus sign, are read as
integers, everything else as text.  The header must name exactly the
star's wires, in any order; duplicate data rows collapse.
:func:`survives_csv` tells whether a value is written as a token that
reads back as the same value; script types admit no other values.

A file is read a column at a time: its data lines are split into cells
once, each distinct cell text is parsed once, and each wire's column is
a stride slice of the parsed cells.  A file whose cells are all distinct
costs about what one parse per cell did.

A row must fit the star as a :class:`~wiring.relations.Relation`'s tuple
must, and the loader checks its rows and columns with the same function:
an error names the first row, in file order, with the wrong number of
cells or a value outside its wire's domain.
"""

from __future__ import annotations

import os
from itertools import islice, repeat
from typing import IO, Iterable

from .errors import CsvFormatError, not_utf8
from .relations import Relation, _first_misfit
from .typed import TypedStar, Value


def _parse_token(token: str) -> Value:
    token = token.strip()
    # str.isdigit also accepts non-ASCII digits such as '²', which int rejects
    if (token.isdigit() or token[:1] == "-" and token[1:].isdigit()) and token.isascii():
        return int(token)
    return token


def survives_csv(value: Value) -> bool:
    """True when a cell written as ``str(value)`` reads back as ``value``."""
    text = str(value)
    if not text or any(ch in text for ch in ",\r\n"):
        return False
    return _parse_token(text) == value


def load_csv_relation(path: str | os.PathLike, star: TypedStar) -> Relation:
    """Load the relation on ``star`` stored at ``path``: its cells split
    once and each distinct text parsed once, which for a file of distinct
    cells costs what a parse per cell did.  Rows are checked against the
    wire domains; errors carry the 1-based data row number and the
    offending column, the header's line, or for a file that is not UTF-8
    text the line and column of its first bad byte, the file's first line
    being line 1.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(not_utf8(path, exc)) from exc
    lines = text.split("\n")
    del text
    top = next((k for k, line in enumerate(lines) if line.strip()), None)
    if top is None:
        raise CsvFormatError(f"{path}: missing header row")
    header = [h.strip() for h in lines[top].split(",")]
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}:{top + 1}: header repeats a column")
    if set(header) != set(star.wires):
        missing = sorted(set(star.wires) - set(header))
        extra = sorted(set(header) - set(star.wires))
        detail = []
        if missing:
            detail.append(f"missing columns {missing}")
        if extra:
            detail.append(f"unexpected columns {extra}")
        raise CsvFormatError(f"{path}:{top + 1}: {'; '.join(detail)}")

    lines = list(filter(str.strip, islice(lines, top + 1, None)))
    commas = list(map(str.count, lines, repeat(",")))
    cells = ",".join(lines)
    del lines  # once joined, to keep the peak low
    cells = cells.split(",") if cells else []
    distinct = dict.fromkeys(cells)  # in file order, which parses faster than hash order
    parsed = list(map(_parse_token, distinct))
    # when no text repeats, the parsed texts are the cells' values
    if len(parsed) < len(cells):
        cells = list(map(dict(zip(distinct, parsed)).__getitem__, cells))
    else:
        cells = parsed
    # rows before the first of the wrong width fill the columns' heads
    width = len(header)
    columns = [cells[header.index(w) :: width] for w in star.wires]
    del cells, distinct

    # a line has one cell more than it has commas
    misfit = _first_misfit(star, commas, columns.__getitem__, width=(1).__add__, cover=parsed)
    if misfit is not None:
        k, w = misfit
        row = f"{path}: row {k + 1}"
        if w is None:
            raise CsvFormatError(f"{row} has {commas[k] + 1} cells, expected {width}")
        raise CsvFormatError(
            f"{row}, column {w!r}: value {columns[star.wires.index(w)][k]!r} "
            f"is outside domain {star.domain(w).name!r}"
        )
    return Relation._trusted(star=star, tuples=frozenset(zip(*columns)))


def write_relation_csv(relation: Relation, handle: IO[str]) -> None:
    """Header in wire order, rows sorted lexicographically for determinism."""
    handle.write(",".join(relation.star.wires) + "\n")
    rows: Iterable[tuple] = sorted(
        relation.tuples, key=lambda t: tuple(str(v) for v in t)
    )
    for row in rows:
        handle.write(",".join(str(v) for v in row) + "\n")
