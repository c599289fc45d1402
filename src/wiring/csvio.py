"""Reading relations from CSV files and writing results back out.

Dialect: UTF-8 text, a leading byte-order mark ignored, comma separator,
first line is the header, values are atomic tokens with no quoting.
Tokens of ASCII digits, with an optional leading minus sign, are read as
integers, everything else as text.  The header must name exactly the
star's wires, in any order; duplicate data rows collapse.
:func:`survives_csv` tells whether a value is written as a token that
reads back as the same value; script types admit no other values.

Cells are checked a column at a time: one pass for the cell counts, then
one subset test of each wire's parsed column against its domain.  Only
when a test fails are the rows walked one by one, so an error names the
first misfit in file order, as a row-by-row check would.  ``Relation``
follows the same rule for tuples given in code: it checks them in the order
they arrive, before hashing them, and names the first misfit in that order.
"""

from __future__ import annotations

import os
from itertools import islice
from operator import itemgetter
from typing import IO, Iterable

from .errors import CsvFormatError
from .relations import Relation
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
    """Load the relation on ``star`` stored at ``path``.

    Rows are checked against the wire domains; errors carry the 1-based
    data row number and the offending column.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = [line.rstrip("\n") for line in handle]
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise CsvFormatError(f"{path}: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}: header repeats a column")
    if set(header) != set(star.wires):
        missing = sorted(set(star.wires) - set(header))
        extra = sorted(set(header) - set(star.wires))
        detail = []
        if missing:
            detail.append(f"missing columns {missing}")
        if extra:
            detail.append(f"unexpected columns {extra}")
        raise CsvFormatError(f"{path}: {'; '.join(detail)}")

    rows = [line.split(",") for line in islice(lines, 1, None)]
    del lines  # only the cells are read from here on
    columns = []
    if set(map(len, rows)) <= {len(header)}:
        for w in star.wires:
            column = list(map(_parse_token, map(itemgetter(header.index(w)), rows)))
            if not star.domain(w).contains_all(column):
                break
            columns.append(column)
    if len(columns) != len(star.wires):
        _raise_first_misfit(path, star, header, rows)
    del rows  # before the tuples are built, to keep the peak low
    # every cell was checked above, and the columns are in the order of star.wires
    return Relation._trusted(star, frozenset(zip(*columns)))


def _raise_first_misfit(
    path: str | os.PathLike, star: TypedStar, header: list[str], rows: list[list[str]]
) -> None:
    """Raise the error for the first row, in file order, with the wrong
    number of cells or a value outside its wire's domain."""
    column_of = {w: header.index(w) for w in star.wires}
    for row_number, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            raise CsvFormatError(
                f"{path}: row {row_number} has {len(cells)} cells, expected {len(header)}"
            )
        for w in star.wires:
            v = _parse_token(cells[column_of[w]])
            if v not in star.domain(w):
                raise CsvFormatError(
                    f"{path}: row {row_number}, column {w!r}: value {v!r} is "
                    f"outside domain {star.domain(w).name!r}"
                )


def write_relation_csv(relation: Relation, handle: IO[str]) -> None:
    """Header in wire order, rows sorted lexicographically for determinism."""
    handle.write(",".join(relation.star.wires) + "\n")
    rows: Iterable[tuple] = sorted(
        relation.tuples, key=lambda t: tuple(str(v) for v in t)
    )
    for row in rows:
        handle.write(",".join(str(v) for v in row) + "\n")
