import json
from pathlib import Path

import pytest

import lincert.pipeline
from lincert.core import InvariantError, LincertError, evaluate, make_system
from lincert.cone import is_bounded
from lincert.fourier import feasibility, is_infeasibility_certificate
from lincert.harness import (
    CounterStream,
    GenParams,
    generate_bounded,
    oracle_verdict,
    run_difftest,
    run_trial,
)
from lincert.pipeline import MAIN_ROWS_FIRST, run
from lincert.sysfile import parse, print_system

BASELINE = Path(__file__).resolve().parents[1] / "baseline" / "difftest-seed42-trials500.json"


def test_counter_stream_is_deterministic_and_splittable():
    s = CounterStream(7, "trial-0")
    a = [s.randint(0, 10**6) for _ in range(5)]
    assert len(set(a)) > 1  # draws vary within a stream
    s1, s2 = CounterStream(7, "trial-0"), CounterStream(7, "trial-0")
    assert [s1.randint(0, 100) for _ in range(20)] == [s2.randint(0, 100) for _ in range(20)]
    assert CounterStream(7, "trial-0").randint(0, 10**9) != CounterStream(7, "trial-1").randint(0, 10**9)


def test_counter_stream_range():
    s = CounterStream(3)
    draws = [s.randint(-2, 2) for _ in range(300)]
    assert set(draws) == {-2, -1, 0, 1, 2}
    with pytest.raises(ValueError):
        s.randint(3, 2)


def test_gen_params_validation():
    with pytest.raises(LincertError):
        GenParams(max_vars=0)
    with pytest.raises(LincertError):
        GenParams(max_cons=0)
    with pytest.raises(LincertError):
        GenParams(coeff_lo=2, coeff_hi=-2)
    with pytest.raises(LincertError):
        GenParams(mode="fuzzy")


def test_generated_systems_are_bounded_and_standard():
    for mode in ("box", "filter"):
        params = GenParams(mode=mode, seed=11)
        for i in range(8):
            sys = generate_bounded(CounterStream(params.seed, f"trial-{i}"), params)
            assert is_bounded(sys)
            assert len(sys.sign_rows()) == len(sys.variables)
            if mode == "box":
                # Some cap row x_j <= U_j is present for each variable.
                for v, name in enumerate(sys.variables):
                    assert any(
                        dict(c.expr.terms) == {v: 1} and c.rhs >= 1
                        for c in sys.main_rows()
                    )


def test_identical_seeds_give_identical_systems():
    params = GenParams(seed=42)
    one = generate_bounded(CounterStream(42, "trial-0"), params)
    two = generate_bounded(CounterStream(42, "trial-0"), params)
    assert print_system(one) == print_system(two)


def test_oracle_verdict_on_cone_inputs():
    pinched = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
        is_cone=True,
    )
    assert oracle_verdict(pinched) is False
    open_cone = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": -2}, "<=", 0)],
        nonneg="all",
        is_cone=True,
    )
    assert oracle_verdict(open_cone) is True


def test_bundled_cones_agree_as_fixed_trials():
    solvable = make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": -2}, "<=", 0),
            ({"x": 1, "y": -1}, "<=", 0),
            ({"x": 1, "y": -3}, "<=", 0),
        ],
        nonneg="all",
        is_cone=True,
    )
    report = run_trial(0, solvable)
    assert report.status == "ok"
    assert report.oracle_feasible is True and report.pipeline_solvable is True
    assert report.agreement is True

    pinched = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
        is_cone=True,
    )
    # The documented pivot sequence decides the pinched cone as the oracle
    # does.
    from lincert.pipeline import pivot_sequence

    documented = pivot_sequence([("l3", "row-x"), ("l2", "sign-l3")])
    assert oracle_verdict(pinched) is False and run(pinched, documented).solvable is False

    # Under the default rule the same cone is a recorded disagreement: the
    # default pivot order ends at the point interval {1}.
    default_report = run_trial(1, pinched)
    assert default_report.oracle_feasible is False
    assert default_report.pipeline_solvable is True
    assert default_report.agreement is False
    assert default_report.detail is not None
    assert default_report.pivot_sensitive is True  # the two-row cone is the sensitive one


def test_difftest_zero_trials():
    report = run_difftest(GenParams(seed=1), 0)
    assert report.trial_count == 0
    data = report.to_dict()
    assert data["agreement_rate"] is None
    assert data["trials"] == []


def test_difftest_rejects_a_negative_trial_count():
    with pytest.raises(LincertError, match="trials must be at least 0"):
        run_difftest(GenParams(seed=1), -1)


def test_difftest_reports_are_deterministic():
    params = GenParams(seed=42)
    a = run_difftest(params, 12)
    b = run_difftest(params, 12)
    assert a.to_json(include_wall_clock=False) == b.to_json(include_wall_clock=False)
    data = json.loads(a.to_json())
    assert data["trial_count"] == 12
    assert "wall_clock_seconds" in data
    assert "wall_clock_seconds" not in json.loads(a.to_json(include_wall_clock=False))


def test_every_trial_replays():
    params = GenParams(seed=7)
    report = run_difftest(params, 10)
    for trial in report.trials:
        assert trial.status == "ok"
        system = parse(trial.system_text)
        assert oracle_verdict(system) == trial.oracle_feasible
        assert run(system, MAIN_ROWS_FIRST).solvable == trial.pipeline_solvable


def test_oracle_evidence_is_rechecked_per_trial():
    params = GenParams(seed=3)
    for i in range(10):
        sys = generate_bounded(CounterStream(params.seed, f"trial-{i}"), params)
        verdict = feasibility(sys)
        if verdict.feasible:
            assert all(evaluate(c, verdict.witness) for c in sys.constraints)
        else:
            assert is_infeasibility_certificate(sys, verdict.certificate)


def test_run_trial_raises_when_oracle_evidence_fails(monkeypatch):
    # A witness that fails its check is a lincert bug, not a trial result:
    # feasibility raises on it and run_trial re-raises.  x = 5 fails x <= 1.
    system = make_system(["x"], mains=[({"x": 1}, "<=", 1)], nonneg="all")
    monkeypatch.setattr("lincert.fourier._back_substitute", lambda history, nvars: ([5] * nvars, 1))
    with pytest.raises(InvariantError, match="witness fails constraint 0"):
        run_trial(0, system)


def test_run_trial_leaves_nothing_in_the_callers_memo():
    # A benchmark or replay that holds its systems must not hold every
    # trial's primal cone with them.
    system = generate_bounded(CounterStream(5, "trial-0"), GenParams(seed=5))
    first = run_trial(0, system)
    assert system._memo == {}
    assert run_trial(0, system) == first


def test_an_agreeing_trial_builds_no_fraction_dual(monkeypatch):
    # Only a disagreeing trial prints its working system and steps, and it
    # prints them from the trace's integer states, so neither trial builds
    # a Fraction row, the strong dual's included; both still match the
    # seed-42 baseline record.
    built = []
    original = lincert.pipeline.fraction_row
    monkeypatch.setattr(
        lincert.pipeline, "fraction_row", lambda *args, **kw: built.append(1) or original(*args, **kw)
    )
    golden = json.loads(BASELINE.read_text())["trials"]
    agreeing = next(t for t in golden if t["agreement"])
    disagreeing = next(t for t in golden if not t["agreement"])
    for trial in (agreeing, disagreeing):
        system = generate_bounded(CounterStream(42, f"trial-{trial['index']}"), GenParams(seed=42))
        report = run_trial(trial["index"], system)
        assert built == []
        assert report.to_dict() == trial
    assert report.detail["steps"]
