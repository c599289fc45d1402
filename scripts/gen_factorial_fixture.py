#!/usr/bin/env python3
"""Regenerate the CSV data for fixtures/factorial, truncated where the
type ``N`` of ``factorial.wd`` ends.

``factorial_rows`` is the rule the three CSV files are written from, at any
truncation; ``lift_factorial`` builds the fixture's recursion at any
truncation from ``factorial.wd`` and that rule.  Run it with the ``wiring``
package installed, or with ``src`` on ``PYTHONPATH``.
"""

import pathlib

from wiring.dsl import parse_script
from wiring.relations import Relation
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain, lift_uniform

HERE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "factorial"


def factorial_rows(limit: int) -> dict[str, tuple[list[str], list[tuple]]]:
    """The header and rows of each relation over ``0..limit``, by the file
    ``factorial.wd`` loads it from:

    * decrement: ``A' = A - 1``, clamped to ``0`` at ``A = 0``;
    * multiplication: ``C = A * B'``, keeping only products within range;
    * conditional: ``B = 1`` when ``A = 0``, otherwise ``B = C``.
    """
    values = range(limit + 1)
    return {
        "decrement.csv": (["A", "A'"], [(a, a - 1 if a > 0 else 0) for a in values]),
        "multiply.csv": (
            ["A", "B'", "C"],
            [(a, b, a * b) for a in values for b in values if a * b <= limit],
        ),
        "conditional.csv": (
            ["A", "C", "B"],
            [(a, c, 1 if a == 0 else c) for a in values for c in values],
        ),
    }


def lift_factorial(limit: int) -> tuple[TypedStar, TypedWiringDiagram, list[Relation]]:
    """The arguments of ``build_setup`` for the setup ``fact`` of
    ``factorial.wd`` over ``N = 0..limit``: its star ``z``, its diagram and
    its relations, each star and cable typed with ``N`` and each relation
    holding ``factorial_rows(limit)``'s rows for its file.  A row value
    outside ``N`` raises ``ValidationError``, so the least limit is 1."""
    script = read_script()
    setup = script.setups["fact"]
    domain = ValueDomain("N", range(limit + 1))
    rows = factorial_rows(limit)
    rels = []
    for name in setup.rel_names:
        decl = script.relations[name]
        rels.append(Relation(TypedStar.uniform(decl.star.wires, domain), rows[decl.path][1]))
    phi = lift_uniform(script.diagrams[setup.diagram_name].typed.diagram, domain)
    return TypedStar.uniform(setup.z.wires, domain), phi, rels


def read_script():
    return parse_script((HERE / "factorial.wd").read_text(encoding="utf-8"))


def write(name: str, header: list[str], rows) -> None:
    path = HERE / name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"wrote {path}")


def main() -> None:
    limit = max(read_script().domains["N"].values)
    for name, (header, rows) in factorial_rows(limit).items():
        write(name, header, rows)


if __name__ == "__main__":
    main()
