#!/usr/bin/env python3
"""Build NOT and AND from a NAND table by wiring, and print the results.

NOT ties both NAND inputs to one cable; AND feeds a NAND into that NOT.
The AND table is computed two ways that must agree: evaluating the
composite diagram directly, and evaluating stagewise.
"""

from wiring.relations import Relation, evaluate
from wiring.stars import WiringDiagram
from wiring.typed import TypedStar, TypedWiringDiagram, ValueDomain, typed_compose, typed_identity

BOOL = ValueDomain("Bool", ("True", "False"))


def table(rel: Relation) -> str:
    header = " | ".join(rel.star.wires)
    rows = sorted(rel.tuples, reverse=True)
    return "\n".join([header] + [" | ".join(t) for t in rows])


def main() -> None:
    gate = TypedStar.uniform(["A", "B", "out"], BOOL)
    io = TypedStar.uniform(["in", "out"], BOOL)
    nand = Relation(
        gate,
        [
            ("True", "True", "False"),
            ("True", "False", "True"),
            ("False", "True", "True"),
            ("False", "False", "True"),
        ],
    )

    tie = TypedWiringDiagram(
        WiringDiagram(
            inner=(gate.star,),
            outer=io.star,
            cables=("i", "o"),
            inner_map={(0, "A"): "i", (0, "B"): "i", (0, "out"): "o"},
            outer_map={"in": "i", "out": "o"},
        ),
        {"i": BOOL, "o": BOOL},
    )
    notrel = evaluate(tie, [nand])
    print("NOT:")
    print(table(notrel))

    chain = TypedWiringDiagram(
        WiringDiagram(
            inner=(gate.star, io.star),
            outer=gate.star,
            cables=("a", "b", "m", "o"),
            inner_map={
                (0, "A"): "a",
                (0, "B"): "b",
                (0, "out"): "m",
                (1, "in"): "m",
                (1, "out"): "o",
            },
            outer_map={"A": "a", "B": "b", "out": "o"},
        ),
        {c: BOOL for c in ("a", "b", "m", "o")},
    )
    stagewise = evaluate(chain, [nand, notrel])
    composite = typed_compose(chain, [typed_identity(gate), tie])
    direct = evaluate(composite, [nand, nand])
    assert stagewise == direct
    print("\nAND (two NANDs):")
    print(table(direct))


if __name__ == "__main__":
    main()
