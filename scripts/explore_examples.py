#!/usr/bin/env python3
"""Pivot-order exploration on the three bundled cone examples.

Prints every distinct terminal outcome of the elimination loop for the
solvable three-row cone and for the pinched (origin-only) cone, which is the
minimal pivot-sensitivity demonstration: one order of eliminations leaves
the interval [0, 1], another pins l1 = 1.  The third example is the pinched
cone with an all-zero row 0 <= 0 between its rows: that row's multiplier l3
is mentioned by no row, so every sequence eliminates it by the zero move.

Every printed witness is also replayed as `--rule paper-seq:` text, through
`pipeline.parse_rule` and `pipeline.run`; a replay that ends in another
interval or verdict is reported on stderr and the script exits 1.

scripts/explore_examples.expected holds its output; CI diffs against it.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lincert.core import make_system
from lincert.pipeline import explore, format_sequence, parse_rule, run

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


def main() -> int:
    mismatches = 0
    for name, system in EXAMPLES.items():
        result = explore(system)
        print(f"{name}:")
        print(f"  sequences explored: {result.sequence_count}")
        print(f"  distinct states: {result.states}")
        print(f"  pivot-sensitive: {result.pivot_sensitive}")
        for outcome in result.outcomes:
            seq = format_sequence(outcome.sequence)
            print(f"  {outcome.verdict:10s} {outcome.interval.describe():10s} via {seq}")
            trace = run(system, parse_rule("paper-seq:" + seq))
            if (trace.interval, trace.verdict) != (outcome.interval, outcome.verdict):
                mismatches += 1
                print(
                    f"{name}: paper-seq:{seq} replays to {trace.verdict} {trace.interval.describe()}",
                    file=sys.stderr,
                )
        print()
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
