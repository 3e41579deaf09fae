#!/usr/bin/env python3
"""Compare `lincert` output between this checkout and another tree.

    python3 scripts/compare_cli.py PARENT_TREE

Runs each command line in MODES, FILE standing for the system, on three
corpora in both trees, each tree in its own Python process that imports
lincert from that tree's src/.  The baseline corpus is the systems of this
checkout's seed-42 baseline (baseline/difftest-seed42-trials500.json): all
`<=` rows, integral and `nonneg: all`.  The mixed corpus (mixed_corpus) is
a fixed seeded draw of systems with what the baseline lacks: strict and
`>=` rows, p/q coefficients and right sides, and unsigned variables, so
Fourier meets strict and one-sided fibers and rows with denominators.
The cone corpus (cone_corpus) is a fixed seeded draw of sparse
`cone`-flagged systems, some with all-zero rows, so solve9 and explore
take the zero move, which the other corpora hardly reach.
Exit code, stdout and stderr of every call are compared byte for byte.
Each tree also writes the difftest report of every (seed, mode) in
DIFFTESTS, `run_difftest(GenParams(seed=seed, mode=mode), 200)` without
its wall clock, and the reports are compared byte for byte too: their
disagreeing trials carry the pivot trace, working and terminal systems
of each, beyond what the seed-42 golden file holds.
The `Fraction` side of the Gaussian route, which no CLI output shows, is
compared too: for every corpus system that `pipeline.run` accepts under
the default rule, the `repr` of its working system, of each step's system
and of its terminal system, provenance included; a system that `run`
refuses in both trees counts as identical.
Prints, per command line and corpus, per corpus's `Fraction` systems and
per report, how many outputs are identical, and the first difference as a
unified diff.  Exits 0 when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "baseline" / "difftest-seed42-trials500.json"
MODES = [
    ["solve9", "FILE", "--trace", "--json"],
    ["solve9", "FILE", "--trace"],
    ["solve9", "FILE", "--explore", "--json"],
    ["check", "FILE", "--json"],
    ["implicit", "FILE", "--json"],
    ["cone", "FILE", "--analyze", "--json"],
    ["fourier", "FILE", "--eliminate", "x1", "--json"],
    ["dual", "FILE", "--json"],
    ["dual", "FILE"],
    ["dual", "FILE", "--strong", "--objective", "x1", "--sigma", "2", "--json"],
]
DIFFTESTS = [(7, "box"), (7, "filter"), (9, "box"), (9, "filter")]
DIFFTEST_TRIALS = 200

# Runs in the child: reads [system text, ...] on stdin, writes
# {"cli": [[[exit code, stdout, stderr], ...] per mode],
#  "difftest": [report JSON, ...] per (seed, mode),
#  "systems": [[repr, ...] per working, step and terminal system, or
#              None where run refuses the system, ...] per text} on stdout.
CHILD = r"""
import io, json, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
import lincert
from lincert.cli import main
from lincert.core import LincertError
from lincert.harness import GenParams, run_difftest
from lincert.pipeline import run
from lincert.sysfile import parse

src, modes = Path(sys.argv[1]).resolve(), json.loads(sys.argv[2])
difftests, trials = json.loads(sys.argv[3]), int(sys.argv[4])
if Path(lincert.__file__).resolve().parent != src / "lincert":
    sys.exit(f"lincert was imported from {lincert.__file__}, not from {src}")
texts = json.load(sys.stdin)
results = [[] for _ in modes]
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "system.sys"
    for text in texts:
        path.write_text(text)
        for mode, result in zip(modes, results):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([str(path) if arg == "FILE" else arg for arg in mode])
            result.append([code, out.getvalue(), err.getvalue()])
reports = [
    run_difftest(GenParams(seed=seed, mode=mode), trials).to_json(include_wall_clock=False)
    for seed, mode in difftests
]

def fraction_systems(text):
    try:
        trace = run(parse(text))
    except LincertError:
        return None
    return [repr(trace.working.system)] + [repr(s.system) for s in trace.steps] + [repr(trace.terminal)]

systems = [fraction_systems(text) for text in texts]
json.dump({"cli": results, "difftest": reports, "systems": systems}, sys.stdout)
"""


def mixed_corpus() -> list[str]:
    """200 systems over x1..xn, n in 2..4, with 2 to 6 rows each, drawn
    from a fixed seed.  Coefficients and right sides are p/q with q in
    1..3.  Every fourth system has only `<=` rows and `nonneg: all`, the
    standard shape solve9 and dual work on; the others draw each row's
    relation from <=, <, >= and > and leave each variable unsigned with
    probability 1/2."""
    rng = random.Random(12)

    def rational() -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))

    texts = []
    for i in range(200):
        names = [f"x{j}" for j in range(1, rng.randint(2, 4) + 1)]
        standard = i % 4 == 0
        lines = ["vars: " + " ".join(names)]
        for _ in range(rng.randint(2, 6)):
            terms = [(a, name) for name in names if (a := rational())]
            rhs = rational()
            if terms:
                expr = " ".join(f"{'-' if a < 0 else '+'} {abs(a)}*{name}" for a, name in terms)
                rel = "<=" if standard else rng.choice(("<=", "<", ">=", ">"))
                lines.append(f"{expr} {rel} {'-' if rhs < 0 else ''}{abs(rhs)}")
        signed = names if standard else [name for name in names if rng.random() < 0.5]
        if signed:
            lines.append("nonneg: " + ("all" if signed == names else " ".join(signed)))
        texts.append("\n".join(lines) + "\n")
    return texts


def cone_corpus() -> list[str]:
    """150 `cone`-flagged systems over x1..xn, n in 2..4, with 1 to 5
    homogeneous `<=` rows each and `nonneg: all`, drawn from a fixed seed.
    Each coefficient is a nonzero integer in -3..3 with probability 2/5,
    so some rows come out all zero, and every other system also gets a
    `0*x1 <= 0` row.  The multiplier of an all-zero cone row takes the
    zero move on every pivot path."""
    rng = random.Random(24)
    texts = []
    for i in range(150):
        names = [f"x{j}" for j in range(1, rng.randint(2, 4) + 1)]
        lines = ["vars: " + " ".join(names), "cone"]
        for _ in range(rng.randint(1, 5)):
            terms = [(rng.choice((-3, -2, -1, 1, 2, 3)), name) for name in names if rng.random() < 0.4]
            expr = " ".join(f"{'-' if a < 0 else '+'} {abs(a)}*{name}" for a, name in terms)
            lines.append(f"{expr or '0*x1'} <= 0")
        if i % 2:
            lines.insert(rng.randint(2, len(lines)), "0*x1 <= 0")
        lines.append("nonneg: all")
        texts.append("\n".join(lines) + "\n")
    return texts


def start(tree: Path, texts: list[str]) -> subprocess.Popen:
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(src), json.dumps(MODES), json.dumps(DIFFTESTS), str(DIFFTEST_TRIALS)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    proc.stdin.write(json.dumps(texts))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, tree: Path) -> dict:
    raw = proc.stdout.read()
    if proc.wait() != 0:
        sys.exit(f"the run in {tree} failed with exit code {proc.returncode}")
    return json.loads(raw)


def render(result) -> list[str]:
    code, out, err = result
    return [f"exit code {code}\n"] + out.splitlines(keepends=True) + [f"stderr: {line}" for line in err.splitlines(keepends=True)]


def render_systems(reprs) -> list[str]:
    return ["refused by run\n"] if reprs is None else [line + "\n" for line in reprs]


def compare_corpora(title, parent, change, corpora, show) -> bool:
    """Print, per corpus, how many of its outputs are identical and the
    first difference, each output written as the lines `show` gives it;
    True when all are identical."""
    offset = 0
    same_everywhere = True
    for name, corpus in corpora.items():
        pairs = list(zip(parent[offset : offset + len(corpus)], change[offset : offset + len(corpus)]))
        offset += len(corpus)
        same = sum(a == b for a, b in pairs)
        print(f"{title}, {name} corpus: {same}/{len(pairs)} byte-identical")
        first = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
        if first is not None:
            same_everywhere = False
            print(f"first difference, {name} system {first}:")
            a, b = pairs[first]
            sys.stdout.writelines(difflib.unified_diff(show(a), show(b), "parent", "change"))
    return same_everywhere


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    args = parser.parse_args()
    corpora = {
        "baseline": [trial["system"] for trial in json.loads(BASELINE.read_text())["trials"]],
        "mixed": mixed_corpus(),
        "cone": cone_corpus(),
    }
    texts = [text for corpus in corpora.values() for text in corpus]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    procs = {side: start(tree, texts) for side, tree in trees.items()}
    results = {side: finish(proc, trees[side]) for side, proc in procs.items()}
    parent, change = results["parent"], results["change"]
    same_everywhere = True
    for mode, a, b in zip(MODES, parent["cli"], change["cli"]):
        same_everywhere &= compare_corpora(f"lincert {' '.join(mode)}", a, b, corpora, render)
    same_everywhere &= compare_corpora("run's Fraction systems", parent["systems"], change["systems"], corpora, render_systems)
    for (seed, mode), a, b in zip(DIFFTESTS, parent["difftest"], change["difftest"]):
        print(f"difftest seed {seed} {mode}, {DIFFTEST_TRIALS} trials: {'byte-identical' if a == b else 'different'}")
        if a != b:
            same_everywhere = False
            sys.stdout.writelines(
                difflib.unified_diff(a.splitlines(keepends=True), b.splitlines(keepends=True), "parent", "change")
            )
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main())
