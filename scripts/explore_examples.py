#!/usr/bin/env python3
"""Pivot-order exploration on the three bundled cone examples.

Prints every distinct terminal outcome of the elimination loop for the
solvable three-row cone and for the pinched (origin-only) cone, which is the
minimal pivot-sensitivity demonstration: one order of eliminations leaves
the interval [0, 1], another pins l1 = 1.  The third example is the pinched
cone with an all-zero row 0 <= 0 between its rows: that row's multiplier l3
is mentioned by no row, so every sequence eliminates it by the zero move.

scripts/explore_examples.expected holds its output; CI diffs against it.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lincert.core import make_system
from lincert.pipeline import explore

EXAMPLES = {
    "solvable cone (three half-planes)": make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": -2}, "<=", 0),
            ({"x": 1, "y": -1}, "<=", 0),
            ({"x": 1, "y": -3}, "<=", 0),
        ],
        nonneg="all",
        is_cone=True,
    ),
    "pinched cone (origin only)": make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
        is_cone=True,
    ),
    "pinched cone with a zero row (0 <= 0)": make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
        is_cone=True,
    ),
}


def main():
    for name, system in EXAMPLES.items():
        result = explore(system)
        print(f"{name}:")
        print(f"  sequences explored: {result.sequence_count}")
        print(f"  distinct states: {result.states}")
        print(f"  pivot-sensitive: {result.pivot_sensitive}")
        for outcome in result.outcomes:
            seq = ", ".join(f"{v}@{label}" for v, label in outcome.sequence)
            print(f"  {outcome.verdict:10s} {outcome.interval.describe():10s} via {seq}")
        print()


if __name__ == "__main__":
    main()
