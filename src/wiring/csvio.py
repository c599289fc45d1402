"""Reading relations from CSV files and writing results back out.

Dialect: UTF-8 text, a leading byte-order mark ignored, comma separator,
first line is the header, values are atomic tokens with no quoting.
Tokens of ASCII digits, with an optional leading minus sign, are read as
integers, everything else as text.  The header must name exactly the
star's wires, in any order; duplicate data rows collapse.
:func:`survives_csv` tells whether a value is written as a token that
reads back as the same value; script types admit no other values.

A row must fit the star as a :class:`~wiring.relations.Relation`'s tuple
must, and the loader checks its rows and the columns it parses with the
same function: an error names the first row, in file order, with the
wrong number of cells or a value outside its wire's domain.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import islice
from operator import itemgetter
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
    """Load the relation on ``star`` stored at ``path``.

    Rows are checked against the wire domains; errors carry the 1-based
    data row number and the offending column, or for a file that is not
    UTF-8 text the line and column of its first bad byte, the header being
    line 1.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CsvFormatError(not_utf8(path, exc)) from exc
    lines = [line for line in text.split("\n") if line.strip()]
    del text
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
    positions = [header.index(w) for w in star.wires]

    @cache
    def column(j: int, n: int) -> list[Value]:
        return list(map(_parse_token, map(itemgetter(positions[j]), islice(rows, n))))

    misfit = _first_misfit(star, rows, column)
    if misfit is not None:
        k, w = misfit
        if w is None:
            raise CsvFormatError(
                f"{path}: row {k + 1} has {len(rows[k])} cells, expected {len(header)}"
            )
        raise CsvFormatError(
            f"{path}: row {k + 1}, column {w!r}: value "
            f"{_parse_token(rows[k][header.index(w)])!r} is outside domain {star.domain(w).name!r}"
        )
    n = len(rows)
    del rows  # before the tuples are built, to keep the peak low
    # every row fits, so each column of all n rows is parsed and cached
    return Relation._trusted(
        star=star, tuples=frozenset(zip(*(column(j, n) for j in range(len(positions)))))
    )


def write_relation_csv(relation: Relation, handle: IO[str]) -> None:
    """Header in wire order, rows sorted lexicographically for determinism."""
    handle.write(",".join(relation.star.wires) + "\n")
    rows: Iterable[tuple] = sorted(
        relation.tuples, key=lambda t: tuple(str(v) for v in t)
    )
    for row in rows:
        handle.write(",".join(str(v) for v in row) + "\n")
