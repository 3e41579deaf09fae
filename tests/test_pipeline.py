import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lincert.core import (
    Constraint,
    InvariantError,
    LinearExpr,
    Point,
    Provenance,
    Relation,
    System,
    ZERO,
    check_multiplier_certificate,
    make_system,
)
from lincert.cone import is_reduced_to_origin
from lincert.dual import multipliers_from_primal_solution, strong_elementary_dual
from lincert.fourier import normalized_key
from lincert.gauss import substitute_through, transfer_multipliers, classify
from lincert.harness import CounterStream, GenParams, generate_bounded
from lincert.pipeline import (
    ExploreBudgetExceeded,
    Interval,
    MAIN_ROWS_FIRST,
    PivotRule,
    PivotRuleError,
    UnboundedInputError,
    _apply_step,
    _drop_sign_row,
    _eligible_pivots,
    _fallback_zero,
    build_working_system,
    explicit_order,
    explore,
    pivot_sequence,
    run,
    terminal_interval,
)


def solvable_cone():
    """Three half-planes through the origin with a common interior ray."""
    return make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": -2}, "<=", 0),
            ({"x": 1, "y": -1}, "<=", 0),
            ({"x": 1, "y": -3}, "<=", 0),
        ],
        nonneg="all",
        is_cone=True,
    )


def pinched_cone():
    """x + y pinned to zero; together with the signs, only the origin."""
    return make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
        is_cone=True,
    )


MAIN_SEQUENCE = pivot_sequence([("l3", "row-x"), ("l2", "row-y"), ("l4", "sign-l3")])
FINAL_SEQUENCE = pivot_sequence([("l3", "row-x"), ("l2", "sign-l3")])


def rows_up_to_scaling(system):
    return sorted(normalized_key(c) for c in system.constraints)


def expected_keys(rows, variables):
    return sorted(normalized_key(c) for c in make_system(variables, mains=rows).constraints)


def test_working_system_of_solvable_cone():
    ws = build_working_system(solvable_cone())
    sys = ws.system
    assert sys.variables == ("l1", "l2", "l3", "l4")
    by_label = {ws.label_of(c.cid): c for c in sys.constraints if c.provenance.kind != "sign"}
    assert dict(by_label["row-x"].expr.terms) == {i: Fraction(-1) for i in range(4)}
    assert by_label["row-x"].rhs == -1
    assert dict(by_label["row-y"].expr.terms) == {
        0: Fraction(-1),
        1: Fraction(2),
        2: Fraction(1),
        3: Fraction(3),
    }
    assert by_label["row-y"].rhs == -1
    assert dict(by_label["extension"].expr.terms) == {0: Fraction(2)}
    assert by_label["extension"].rhs == 2
    assert len(sys.sign_rows()) == 4


def test_working_system_of_pinched_cone():
    ws = build_working_system(pinched_cone())
    sys = ws.system
    assert sys.variables == ("l1", "l2", "l3")
    x_row = sys.constraint(0)
    y_row = sys.constraint(1)
    assert x_row.key() == y_row.key()  # both read l1 + l2 - l3 >= 1
    assert dict(x_row.expr.terms) == {0: Fraction(-1), 1: Fraction(-1), 2: Fraction(1)}


def test_working_system_of_empty_cone():
    empty = make_system([], is_cone=True)
    ws = build_working_system(empty)
    keys = [c.key() for c in ws.system.constraints]
    assert ws.system.variables == ("l1",)
    # Just the extension 2*l1 <= 2 and the sign row.
    assert keys == [
        (((0, Fraction(2)),), Relation.LE, Fraction(2)),
        (((0, Fraction(-1)),), Relation.LE, Fraction(0)),
    ]
    trace = run(empty)
    assert trace.interval == Interval(False, Fraction(0), False, Fraction(1), False)
    assert trace.verdict == "unsolvable"


def test_empty_primal_without_cone_flag_goes_through_homogenization():
    trace = run(make_system([]))
    assert trace.verdict == "solvable"
    assert trace.interval.is_point(1)


def test_unbounded_input_is_rejected():
    wedge = make_system(["x", "y"], mains=[({"x": 1, "y": -1}, "<=", 0)], nonneg="all")
    with pytest.raises(UnboundedInputError):
        build_working_system(wedge)


def test_nonstandard_cone_flag_is_rejected():
    not_homogeneous = make_system(
        ["x"], mains=[({"x": 1}, "<=", 1)], nonneg="all", is_cone=True
    )
    with pytest.raises(Exception):
        build_working_system(not_homogeneous)


def test_main_example_documented_sequence():
    trace = run(solvable_cone(), MAIN_SEQUENCE)
    assert [s.kind for s in trace.steps] == ["original-main", "original-main", "converted-sign"]
    assert rows_up_to_scaling(trace.terminal) == expected_keys(
        [
            ({"l1": -2}, "<=", -2),  # 3*l1 >= 3 scaled
            ({"l1": 2}, "<=", 2),    # -2*l1 >= -2, the extension
            ({"l1": 2}, "<=", 2),    # -2*l1 >= -2 again, from the converted row
            ({"l1": -1}, "<=", 0),   # the sign row
        ],
        ["l1"],
    )
    assert trace.interval == Interval(False, Fraction(1), False, Fraction(1), False)
    assert trace.verdict == "solvable"
    assert not is_reduced_to_origin(solvable_cone())


def test_main_example_intermediate_table():
    trace = run(solvable_cone(), MAIN_SEQUENCE)
    after_first = trace.steps[0].system
    # 2*l1 - l2 - 2*l4 >= 2, extension, converted sign row -l1 - l2 - l4 >= -1,
    # and the remaining sign rows.
    assert rows_up_to_scaling(after_first) == expected_keys(
        [
            ({"l1": -2, "l2": 1, "l4": 2}, "<=", -2),
            ({"l1": 2}, "<=", 2),
            ({"l1": 1, "l2": 1, "l4": 1}, "<=", 1),
            ({"l1": -1}, "<=", 0),
            ({"l2": -1}, "<=", 0),
            ({"l4": -1}, "<=", 0),
        ],
        ["l1", "l2", "l3", "l4"],
    )


def test_final_example_documented_sequence():
    trace = run(pinched_cone(), FINAL_SEQUENCE)
    assert trace.interval == Interval(False, Fraction(0), False, Fraction(1), False)
    assert trace.verdict == "unsolvable"
    assert is_reduced_to_origin(pinched_cone())


def test_final_example_other_order_flips_the_verdict():
    flipped = run(pinched_cone(), pivot_sequence([("l2", "row-x"), ("l3", "sign-l2")]))
    assert flipped.verdict == "solvable"


def test_default_rule_is_deterministic():
    a = run(solvable_cone())
    b = run(solvable_cone())
    assert a.verdict == b.verdict == "solvable"
    assert [s.pivot_id for s in a.steps] == [s.pivot_id for s in b.steps]


def test_explicit_order_rule():
    trace = run(solvable_cone(), explicit_order(["l4", "l3", "l2"]))
    assert [s.var_name for s in trace.steps] == ["l4", "l3", "l2"]


def test_extension_row_survives_every_run():
    for primal, rule in [
        (solvable_cone(), MAIN_ROWS_FIRST),
        (solvable_cone(), MAIN_SEQUENCE),
        (pinched_cone(), FINAL_SEQUENCE),
        (pinched_cone(), MAIN_ROWS_FIRST),
    ]:
        trace = run(primal, rule)
        ws = trace.working
        assert all(s.pivot_id != ws.extension_id for s in trace.steps)
        ext = trace.terminal.constraint(ws.extension_id)
        assert ext.provenance.kind == "extension"
        assert dict(ext.expr.terms) == {0: Fraction(2)} and ext.rhs == 2


def test_trace_steps_replay_exactly():
    trace = run(solvable_cone(), MAIN_SEQUENCE)
    system = trace.working.system
    for step in trace.steps:
        if step.pivot_id is None:
            continue
        replayed = substitute_through(system, step.var, step.pivot_id)
        assert replayed == step.system
        system = replayed


def test_sigma_certificate_survives_each_step():
    # The capped cone touches sum(x) = 2 at (1, 1); its solution multipliers
    # stay valid through every documented elimination.
    ws = build_working_system(solvable_cone())
    sd = strong_elementary_dual(
        ws.augmented, LinearExpr.from_terms({0: 1, 1: 1}), sigma=2
    )
    lam = multipliers_from_primal_solution(
        ws.augmented, sd, Point.of({0: 1, 1: 1})
    )
    assert check_multiplier_certificate(ws.system, lam)
    assert lam.get(ws.extension_id) == 1
    system = ws.system
    for var_name, row_label in MAIN_SEQUENCE.sequence:
        var = system.variables.index(var_name)
        labels = {cid: lab for cid, lab in ws.labels if system.has_constraint(cid)}
        pivot = next(c for c in system.constraints if labels.get(c.cid) == row_label)
        cls = classify(system, var, pivot.cid, homogeneous=False)
        lam = transfer_multipliers(cls, lam)
        system = substitute_through(system, var, pivot.cid)
        assert check_multiplier_certificate(system, lam)
        assert lam.get(ws.extension_id) == 1


def test_terminal_interval_examples():
    sys = make_system(
        ["l"],
        mains=[({"l": -2}, "<=", -2)] + [({"l": -3}, "<=", -3)] + [({"l": -1}, "<=", 0)],
    )
    # Rows read l >= 1, l >= 1, l >= 0; add l <= 1 via 2l <= 2.
    sys2 = make_system(
        ["l"],
        mains=[({"l": 2}, "<=", 2), ({"l": -2}, "<=", -2), ({"l": -3}, "<=", -3), ({"l": -1}, "<=", 0)],
    )
    assert terminal_interval(sys2, 0) == Interval(False, Fraction(1), False, Fraction(1), False)
    box = make_system(["l"], mains=[({"l": 1}, "<=", 1), ({"l": -1}, "<=", 0)])
    assert terminal_interval(box, 0) == Interval(False, Fraction(0), False, Fraction(1), False)
    cross = make_system(["l"], mains=[({"l": -1}, "<=", -1), ({"l": 1}, "<=", 0)])
    assert terminal_interval(cross, 0).empty
    two = make_system(["l", "m"], mains=[({"l": 1, "m": 1}, "<=", 1)])
    with pytest.raises(Exception, match="mentions"):
        terminal_interval(two, 0)


def test_contradiction_rows_collapse_the_interval():
    zero_row = make_system(["l"], mains=[({"l": 0}, "<=", -1), ({"l": -1}, "<=", 0)])
    assert terminal_interval(zero_row, 0).empty


def test_paper_sequence_validation():
    with pytest.raises(PivotRuleError, match="labeled"):
        run(solvable_cone(), pivot_sequence([("l3", "row-q"), ("l2", "row-y"), ("l4", "sign-l3")]))
    with pytest.raises(PivotRuleError, match="exactly once"):
        run(solvable_cone(), pivot_sequence([("l3", "row-x")]))
    with pytest.raises(PivotRuleError, match="exactly once"):
        run(solvable_cone(), explicit_order(["l2", "l2", "l3"]))


@pytest.mark.parametrize(
    "primal, rule, message",
    [
        (solvable_cone(), pivot_sequence([("l9", "row-x"), ("l2", "row-y"), ("l4", "sign-l3")]), "no multiplier variable named 'l9'"),
        (solvable_cone(), explicit_order(["l9", "l3", "l2"]), "no multiplier variable named 'l9'"),
        (solvable_cone(), pivot_sequence([("l3", "row-x")]), "exactly once"),
        (solvable_cone(), pivot_sequence([("l3", "row-x"), ("l3", "row-y"), ("l4", "sign-l3")]), "exactly once"),
        (solvable_cone(), explicit_order(["l2", "l2", "l3"]), "exactly once"),
        (solvable_cone(), explicit_order(["l1", "l2", "l3", "l4"]), "exactly once"),
        (solvable_cone(), pivot_sequence([("l3", "row-q"), ("l2", "row-y"), ("l4", "sign-l3")]), "no row labeled 'row-q'"),
        (solvable_cone(), pivot_sequence([("l3", "sign-l3"), ("l2", "row-y"), ("l4", "row-x")]), "'sign-l3' is not an admissible pivot"),
        (solvable_cone(), pivot_sequence([("l3", "extension"), ("l2", "row-y"), ("l4", "row-x")]), "'extension' is not an admissible pivot"),
        (pinched_cone(), pivot_sequence([("l3", "row-x"), ("l2", "row-y")]), "'row-y' does not mention l2"),
        (solvable_cone(), PivotRule("tallest-first"), "unknown pivot rule kind 'tallest-first'"),
    ],
)
def test_run_rejects_bad_rules(primal, rule, message):
    with pytest.raises(PivotRuleError, match=re.escape(message)):
        run(primal, rule)


def test_fallback_zero_kind():
    degenerate = make_system(["x"], mains=[({"x": 0}, "<=", 0)], nonneg="all", is_cone=True)
    trace = run(degenerate)
    kinds = {s.kind for s in trace.steps}
    assert "fallback-zero" in kinds
    assert trace.verdict == "solvable"


def test_fallback_zero_refuses_a_row_that_still_mentions_the_variable():
    # No pivotable row mentions l2, so the fallback runs, but the
    # (non-pivotable) extension row still does: a broken working system.
    system = System(
        ("l1", "l2"),
        (
            Constraint(0, LinearExpr.from_terms({0: 2, 1: 1}), Relation.LE, Fraction(2), Provenance.extension()),
            Constraint(1, LinearExpr.from_terms({0: -1}), Relation.LE, ZERO, Provenance.sign()),
            Constraint(2, LinearExpr.from_terms({1: -1}), Relation.LE, ZERO, Provenance.sign()),
        ),
    )
    with pytest.raises(InvariantError, match="still mentions"):
        _fallback_zero(system, 1)


def test_drop_sign_row_refuses_a_row_that_still_mentions_the_variable():
    rows = (
        ("extension", (2, 1), 2, False, False),
        ("sign-l1", (-1, 0), 0, False, False),
        ("sign-l2", (0, -1), 0, False, False),
    )
    assert _drop_sign_row(rows[1:], 1) == rows[1:2]
    with pytest.raises(InvariantError, match="still mentions"):
        _drop_sign_row(rows, 1)


def test_explore_finds_pivot_sensitivity_of_pinched_cone():
    result = explore(pinched_cone())
    intervals = {o.interval for o in result.outcomes}
    assert len(intervals) >= 2
    assert result.pivot_sensitive
    verdicts = {o.verdict for o in result.outcomes}
    assert verdicts == {"solvable", "unsolvable"}
    # The documented outcome is among them.
    assert Interval(False, Fraction(0), False, Fraction(1), False) in intervals


def test_explore_outcomes_of_solvable_cone_include_documented_run():
    result = explore(solvable_cone())
    assert any(o.interval.is_point(1) and o.verdict == "solvable" for o in result.outcomes)
    assert result.sequence_count >= 2


def test_explore_on_trivial_cone_is_single_outcome():
    empty = make_system([], is_cone=True)
    result = explore(empty)
    assert len(result.outcomes) == 1
    assert result.sequence_count == 1
    assert not result.pivot_sensitive


def test_explore_budget():
    with pytest.raises(ExploreBudgetExceeded):
        explore(solvable_cone(), state_budget=2)


def test_explore_witness_sequences_replay():
    result = explore(pinched_cone())
    for outcome in result.outcomes:
        seq = [(n, lab) for n, lab in outcome.sequence]
        if any(lab == "zero" for _, lab in seq):
            continue
        trace = run(pinched_cone(), pivot_sequence(seq))
        assert trace.interval == outcome.interval
        assert trace.verdict == outcome.verdict


def test_sigma_is_configurable():
    ws = build_working_system(solvable_cone(), sigma=4)
    ext = ws.system.constraint(ws.extension_id)
    assert dict(ext.expr.terms) == {0: Fraction(4)}
    assert ext.rhs == 4
    trace = run(solvable_cone(), MAIN_SEQUENCE, sigma=4)
    assert trace.verdict == "solvable"

def reference_explore(primal):
    """Every pivot sequence walked with no memo through the Fraction
    `_apply_step`: the first witness per outcome in walk order, and the
    number of sequences."""
    ws = build_working_system(primal)
    names = ws.system.variables
    outcomes = {}
    count = 0

    def walk(system, labels, remaining, prefix):
        nonlocal count
        if not remaining:
            interval = terminal_interval(system, ws.lambda_one)
            verdict = "solvable" if interval.is_point(1) else "unsolvable"
            outcomes.setdefault((interval, verdict), prefix)
            count += 1
            return
        for var in sorted(remaining):
            for pivot in sorted(_eligible_pivots(system, var), key=lambda c: c.cid) or [None]:
                new_system, new_labels, step = _apply_step(system, labels, var, pivot)
                head = (names[var], step.pivot_label or "zero")
                walk(new_system, new_labels, remaining - {var}, prefix + (head,))

    walk(ws.system, dict(ws.labels), frozenset(v for v in range(len(names)) if v != ws.lambda_one), ())
    return outcomes, count


def small_draws(seed, wanted, max_multipliers):
    draws = []
    i = 0
    while len(draws) < wanted:
        system = generate_bounded(CounterStream(seed, f"draw-{i}"), GenParams(seed=seed))
        i += 1
        if len(build_working_system(system).system.variables) <= max_multipliers:
            draws.append(system)
    return draws


def test_explore_matches_unmemoized_fraction_walk():
    sensitive = 0
    for system in small_draws(3, 30, 5):
        outcomes, count = reference_explore(system)
        result = explore(system)
        assert {(o.interval, o.verdict): o.sequence for o in result.outcomes} == outcomes
        assert result.sequence_count == count
        assert result.pivot_sensitive == (len({verdict for _, verdict in outcomes}) > 1)
        sensitive += result.pivot_sensitive
    assert 0 < sensitive < 30  # both kinds of input are covered


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_explore_is_invariant_under_positive_row_scaling(seed, data):
    # Scaling a primal row scales one multiplier's column of the working
    # system, so every pivot state maps to a positive rescaling of itself.
    system = generate_bounded(CounterStream(seed, "scaling"), GenParams(max_vars=3, max_cons=3, seed=seed))
    if len(build_working_system(system).system.variables) > 6:
        return
    rows = []
    for c in system.constraints:
        k = 1 if c.provenance.kind == "sign" else data.draw(st.integers(1, 7))
        rows.append(Constraint(c.cid, c.expr.scale(k), c.relation, c.rhs * k, c.provenance))
    base, scaled = explore(system), explore(system.with_rows(rows))
    assert scaled.outcomes == base.outcomes
    assert scaled.sequence_count == base.sequence_count
