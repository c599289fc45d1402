#!/usr/bin/env python3
"""Run the factorial recursion at a chosen truncation and show the chains.

Prunes the recursive setup's transition graph down to its greatest fixed
point (the truncated factorial graph): each round drops the states no
surviving state leads to, and there are about ``limit`` rounds.  The least
fixed point is empty.  For each mode the script prints the round count
and the sizes of the first and last few iterates.
"""

import argparse
from itertools import accumulate
from operator import sub

from gen_factorial_fixture import lift_factorial
from wiring.recursion import build_setup, fixed_point, step

SHOWN = 4  # iterate sizes printed at each end of a chain


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=120, help="largest value kept")
    args = parser.parse_args()

    setup = build_setup(*lift_factorial(args.limit))
    print(f"domain 0..{args.limit}, setup relation has {len(setup.relation)} tuples")

    for mode in ("greatest", "least"):
        result = fixed_point(setup, mode)
        # iterate r is the fixed point plus the states dropped in round r or later
        first = len(result.relation) + sum(map(len, result.pruned))
        sizes = [str(n) for n in accumulate(map(len, result.pruned), sub, initial=first)]
        sizes.append(sizes[-1])
        if len(sizes) > 2 * SHOWN:
            sizes = sizes[:SHOWN] + ["..."] + sizes[-SHOWN:]
        rounds = result.iterations - 1
        print(f"\n{mode} fixed point after {rounds} pruning rounds: {' -> '.join(sizes)}")
        print(f"is_fixed_point: {step(setup, result.relation) == result.relation}")
        if mode == "greatest":
            print("tuples:")
            for a, b in sorted(result.relation.tuples):
                print(f"  {a}! = {b}")


if __name__ == "__main__":
    main()
