"""The three workloads: how each makes its inputs, runs one item and checks it.

An item is one unit of closed-loop work.  Inputs come in rounds: the run
loop only stops between rounds, so every measured run holds whole rounds
and with them each workload's fixed input mix.  ``lc`` is a namespace of
freshly imported lincert modules (see run.import_lincert).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import check


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


class Difftest:
    """harness.run_trial on default-GenParams draws (<= 4 vars, <= 6 rows,
    box mode).  A round holds one draw of each (vars, rows) size class the
    generator picks uniformly, so a round has the generator's size mix, and
    per-trial cost is set mostly by the size class.  The classes in ``heavy`` are
    left out: their 6-multiplier pivot trees take 1.5-7.6 s per trial, so a
    run would hold only two or three of each and every statistic would hang
    on those few draws (see WORKLOADS.md)."""

    name = "difftest"
    rounds_ready = 30     # rounds generated in set-up; a run cycles through them
    trace_rounds = 4      # rounds timed untraced, then traced
    heavy = {(2, 3), (3, 2), (4, 1)}
    golden_path = "baseline/difftest-seed42-trials500.json"
    golden_seed = 42
    scan_limit = 5000     # draws scanned to fill the size classes

    def setup(self, lc, seed, root):
        self.lc = lc
        self.golden = None
        self.golden_compared = 0
        if seed == self.golden_seed:
            with open(root / self.golden_path, encoding="utf-8") as f:
                self.golden = json.load(f)["trials"]
        params = lc.harness.GenParams(seed=seed)
        classes = [
            (v, m)
            for v in range(1, params.max_vars + 1)
            for m in range(1, params.max_cons + 1)
            if (v, m) not in self.heavy
        ]
        found = {k: [] for k in classes}
        for index in range(self.scan_limit):
            system = lc.harness.generate_bounded(lc.harness.CounterStream(seed, f"trial-{index}"), params)
            nvars = len(system.variables)
            bucket = found.get((nvars, len(system.main_rows()) - nvars))
            if bucket is not None and len(bucket) < self.rounds_ready:
                bucket.append((index, system))
            if all(len(b) == self.rounds_ready for b in found.values()):
                break
        else:
            raise RuntimeError(f"seed {seed}: {self.scan_limit} draws did not fill every size class")
        return [[found[k][r] for k in classes] for r in range(self.rounds_ready)]

    def run(self, item):
        index, system = item
        return self.lc.harness.run_trial(index, system)

    def check(self, item, report):
        d = report.to_dict()
        ok = (
            report.status == "ok"
            and report.agreement == (report.oracle_feasible == report.pipeline_solvable)
            and report.pipeline_solvable == (report.interval == "[1, 1]")
        )
        if self.golden is not None and report.index < len(self.golden):
            ok = ok and d == self.golden[report.index]
            self.golden_compared += 1
        return ok, digest(d)


def planted_rows(rng, n, k, x0, feasible, strict_share=0.0):
    """k rows over n variables with coefficients +-1..5, every column split
    evenly between signs.  Feasible rows hold at the integer point x0 (slack
    0-4, at least 1 on a strict row); an infeasible set swaps one row for one
    that a positive mix of 2-3 others contradicts."""
    m = k if feasible else k - 1
    columns = []
    for _ in range(n):
        signs = [1] * (m // 2) + [-1] * (m - m // 2)
        rng.shuffle(signs)
        columns.append([s * rng.randint(1, 5) for s in signs])
    rows = []
    for i in range(m):
        a = [col[i] for col in columns]
        strict = rng.random() < strict_share
        b = sum(ai * xi for ai, xi in zip(a, x0)) + rng.randint(1 if strict else 0, 4)
        rows.append((a, "<" if strict else "<=", b))
    if not feasible:
        picks = rng.sample(range(m), rng.randint(2, min(3, m)))
        w = {p: rng.randint(1, 3) for p in picks}
        a = [-sum(w[p] * rows[p][0][j] for p in picks) for j in range(n)]
        gap = rng.randint(0 if any(rows[p][1] == "<" for p in picks) else 1, 3)
        rows.insert(rng.randint(0, m), (a, "<=", -sum(w[p] * rows[p][2] for p in picks) - gap))
    return rows


def system_text(rows, n, signed):
    """The canonical text sysfile.print_system gives for these rows."""
    names = [f"x{j + 1}" for j in range(n)]
    lines = ["vars: " + " ".join(names)]
    for a, rel, b in rows:
        terms = []
        for c, name in zip(a, names):
            if c:
                body = name if abs(c) == 1 else f"{abs(c)}*{name}"
                sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
                terms.append(sign + body)
        lines.append(f"{' '.join(terms) or '0*' + names[0]} {rel} {b}")
    if signed:
        lines.append("nonneg: all")
    return "\n".join(lines) + "\n"


def check_rows(rows, n, signed):
    """check.py rows with parse's ids: mains in order, then one -x_j <= 0 each."""
    plain = {cid: (tuple(map(Fraction, a)), rel, Fraction(b)) for cid, (a, rel, b) in enumerate(rows)}
    if signed:
        for j in range(n):
            plain[len(rows) + j] = (tuple(Fraction(-(k == j)) for k in range(n)), "<=", Fraction(0))
    return plain


class Oracle:
    """The `lincert check` path: parse text, then fourier.feasibility in table
    order, on 4 vars and 7 planted rows, 40% of them strict.  A round holds
    one system of each kind: feasible or infeasible, with or without
    nonneg: all."""

    name = "oracle"
    nvars = 4
    nrows = 7
    rounds_ready = 400
    trace_rounds = 60

    def setup(self, lc, seed, root):
        self.lc = lc
        rng = random.Random(f"oracle|{seed}")
        rounds = []
        for r in range(self.rounds_ready):
            batch = []
            for feasible in (True, False):
                for signed in (True, False):
                    x0 = [rng.randint(0 if signed else -3, 3) for _ in range(self.nvars)]
                    rows = planted_rows(rng, self.nvars, self.nrows, x0, feasible, strict_share=0.4)
                    text = system_text(rows, self.nvars, signed)
                    batch.append((4 * r + len(batch), text, check_rows(rows, self.nvars, signed), feasible))
            rounds.append(batch)
        return rounds

    def run(self, item):
        return self.lc.fourier.feasibility(self.lc.sysfile.parse(item[1]))

    def check(self, item, verdict):
        _, _, rows, feasible = item
        if verdict.feasible:
            evidence = dict(verdict.witness.values)
            ok = check.satisfies(rows, evidence)
        else:
            evidence = dict(verdict.certificate.entries)
            ok = check.is_contradiction(rows, evidence)
        return ok and verdict.feasible == feasible, digest([verdict.feasible, sorted(evidence.items())])


class Analyze:
    """Text in, reports out: parse, implicit equalities, boundedness, primal
    cone, full dimension, extension status, solve9 (no explore), print.
    Every system has 3 nonnegative vars, 3 planted rows and a cap
    x1 + x2 + x3 <= U, so it is bounded and its elementary dual has 4
    multipliers.  A round holds three feasible systems, one feasible system
    whose first two rows pin a <= b and -a <= -b (an implicit equality), and
    one infeasible system."""

    name = "analyze"
    nvars = 3
    nrows = 3
    rounds_ready = 400
    trace_rounds = 50
    kinds = ((True, False), (True, False), (True, False), (True, True), (False, False))

    def setup(self, lc, seed, root):
        self.lc = lc
        rng = random.Random(f"analyze|{seed}")
        n = self.nvars
        rounds = []
        for r in range(self.rounds_ready):
            batch = []
            for feasible, pinned in self.kinds:
                x0 = [rng.randint(0, 3) for _ in range(n)]
                rows = planted_rows(rng, n, self.nrows, x0, feasible)
                if pinned:
                    a = rows[0][0]
                    b = sum(ai * xi for ai, xi in zip(a, x0))
                    rows[0], rows[1] = (a, "<=", b), ([-c for c in a], "<=", -b)
                rows.append(([1] * n, "<=", sum(x0) + rng.randint(0, 3)))
                text = system_text(rows, n, signed=True)
                index = len(self.kinds) * r + len(batch)
                batch.append((index, text, check_rows(rows, n, True), len(rows), feasible))
            rounds.append(batch)
        return rounds

    def run(self, item):
        lc = self.lc
        system = lc.sysfile.parse(item[1])
        implicit = lc.implicit.implicit_set(system)
        return {
            "implicit": implicit,
            "bounded": lc.cone.is_bounded(system),
            "origin_only": lc.cone.is_reduced_to_origin(lc.cone.primal_cone(system).system),
            "full_dim": lc.cone.is_full_dimensional(system),
            "extension": lc.dual.extension_status(lc.dual.elementary_dual(system)),
            "solve9": lc.pipeline.run(system),
            "text": lc.sysfile.print_system(system),
        }

    def check(self, item, out):
        _, text, rows, nmains, planted = item
        nvars = self.nvars
        implicit, ext, solve9 = out["implicit"], out["extension"], out["solve9"]
        feasible = implicit.feasible
        ids = set(implicit.implicit_ids)
        joint = dict(implicit.certificate.entries)
        dual = check.elementary_dual_rows([(rows[c][0], rows[c][2]) for c in range(nmains)], nvars)
        if ext.implicit:
            # Extension weight w > 0 encodes the primal point (dual-row weights) / w.
            weights = dict(ext.certificate.entries)
            ext_ok = check.is_zero_combination(dual, weights, positive_on=[nvars]) and check.satisfies(
                rows, {j: weights.get(j, 0) / weights[nvars] for j in range(nvars)}
            )
        else:
            strict = dict(dual)
            strict[nvars] = (dual[nvars][0], "<", dual[nvars][2])
            ext_ok = check.satisfies(strict, dict(ext.witness.values))
        # A row with an all-zero left side is never strictened, so it cannot
        # cost full dimension even when it holds with equality.
        flat = {c for c in ids if any(rows[c][0])}
        ok = (
            ext_ok
            and feasible == planted
            and ext.implicit == feasible
            and out["bounded"]
            and out["origin_only"] == (not feasible)
            and out["full_dim"] == (feasible and not flat)
            and (check.is_zero_combination(rows, joint, positive_on=ids) if feasible else not ids)
            and solve9.solvable == (solve9.interval.describe() == "[1, 1]")
            and out["text"] == text
        )
        summary = [
            feasible, sorted(ids), sorted(joint.items()), out["bounded"], out["origin_only"],
            out["full_dim"], ext.implicit, solve9.verdict, solve9.interval.describe(),
        ]
        return ok, digest(summary)


WORKLOADS = {w.name: w for w in (Difftest, Oracle, Analyze)}
