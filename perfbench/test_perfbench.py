"""Tests of the benchmark itself: the independent checker, the golden
comparison, the host-speed scaling and the repeatability of the exact
counters.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction as F

import pytest

import check
import run
from spans import SpanRecorder
from speed import REFERENCE_MS, SpeedGauge

sys.path.insert(0, str(run.SRC))

# Time-based metrics vary run to run; everything else is an exact count.
TIMED = (".self_s", ".total_s", ".share")


def test_checker_accepts_good_and_rejects_bad_evidence():
    rows = {0: ((F(1), F(1)), "<=", F(2)), 1: ((F(-1), F(0)), "<", F(0))}  # x + y <= 2, x > 0
    assert check.satisfies(rows, {0: F(1), 1: F(1)})
    assert not check.satisfies(rows, {0: F(0), 1: F(0)})
    contra = {0: ((F(1),), "<=", F(-1)), 1: ((F(-1),), "<=", F(0))}  # x <= -1, x >= 0
    assert check.is_contradiction(contra, {0: F(1), 1: F(1)})
    assert not check.is_contradiction(contra, {0: F(1), 1: F(2)})
    assert not check.is_contradiction(contra, {0: F(-1), 1: F(1)})
    assert not check.is_contradiction(contra, {0: F(1), 7: F(1)})
    pinned = {0: ((F(1),), "<=", F(0)), 1: ((F(-1),), "<=", F(0))}  # x <= 0, x >= 0
    assert check.is_zero_combination(pinned, {0: F(2), 1: F(2)}, positive_on=[0, 1])
    assert not check.is_zero_combination(pinned, {0: F(2), 1: F(2)}, positive_on=[0, 1, 2])
    assert not check.is_zero_combination(pinned, {0: F(2), 1: F(1)})


def plain_rows(system):
    """lincert System -> check.py rows, read off the dataclasses."""
    rows = {}
    for c in system.constraints:
        coeffs = [F(0)] * len(system.variables)
        for v, a in c.expr.terms:
            coeffs[v] = a
        rows[c.cid] = (tuple(coeffs), c.relation.value, c.rhs)
    return rows


def test_dual_rows_match_lincert():
    lc = run.import_lincert()
    primal = lc.sysfile.parse("vars: x y\nx + 2*y <= 3\n-x + y <= -1\nnonneg: all\n")
    mains = [(c.expr.coeff(0), c.expr.coeff(1)) for c in primal.main_rows()]
    dual = check.elementary_dual_rows([(a, c.rhs) for a, c in zip(mains, primal.main_rows())], 2)
    assert plain_rows(lc.dual.elementary_dual(primal).system) == dual


def test_golden_trial_matches_at_seed_42():
    workload, rounds, _ = run.set_up("difftest", 42)
    assert workload.golden_compared == 1
    item = rounds[1][0]
    assert workload.check(item, workload.run(item))[0]
    assert workload.golden_compared == 2


def test_speed_factor_uses_the_median_kernel_time_near_the_interval():
    gauge = SpeedGauge()  # WINDOW_S is 1 s
    gauge.times = [0.0, 0.5, 1.0, 5.0, 9.0]
    gauge.kernel_ms = [2.0, 4.0, 3.0, 8.0, 1.0]
    assert gauge.factor(0.4, 0.6) == REFERENCE_MS / 3.0  # samples at 0, 0.5 and 1 s
    assert gauge.factor(7.5, 7.6) == REFERENCE_MS / 1.0  # none within 1 s: the closest one
    gauge.sample()
    assert len(gauge.kernel_ms) == 6 and gauge.kernel_ms[-1] > 0


def traced_counts(name, seed, take):
    workload, rounds, _ = run.set_up(name, seed)
    recorder = SpanRecorder()
    recorder.install()
    try:
        p = run.timed_pass(workload, take(rounds), None, "traced", recorder)
    finally:
        recorder.uninstall()
    assert p.failed == 0
    metrics = recorder.layer_metrics(sum(p.latencies))
    return {k: v for k, v in metrics.items() if not k.endswith(TIMED)}


@pytest.mark.parametrize(
    "name, take, busy",
    [
        ("difftest", lambda r: [r[0][:8]], "pipeline.explore.states"),
        ("oracle", lambda r: r[:3], "fourier.pairs_tried"),
        ("analyze", lambda r: r[:20], "implicit.probes"),
    ],
)
def test_counts_repeat_across_traced_runs(name, take, busy):
    first = traced_counts(name, 11, take)
    second = traced_counts(name, 11, take)
    assert first == second
    assert first[busy] > 0
