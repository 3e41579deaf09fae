import gc
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fraction_reference import normalized_key, substitute_fraction, terminal_interval

import lincert.pipeline
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
from lincert.cone import is_reduced_to_origin, primal_cone
from lincert.dual import multipliers_from_primal_solution, strong_elementary_dual
from lincert.gauss import classify, integer_rows, pivot_integer_rows, substitute_through, transfer_multipliers
from lincert.harness import CounterStream, GenParams, generate_bounded, oracle_verdict
from lincert.sysfile import parse, print_system
from lincert.pipeline import (
    ExploreBudgetExceeded,
    Interval,
    LAMBDA_ONE,
    MAIN_ROWS_FIRST,
    PivotRuleError,
    UnboundedInputError,
    _moves,
    build_working_system,
    explore,
    format_sequence,
    parse_rule,
    pivot_sequence,
    run,
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
    labels = dict(ws.labels)
    by_label = {labels[c.cid]: c for c in sys.constraints if c.provenance.kind != "sign"}
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


def capped_cone_reference(primal):
    """The capped cone built straight from the cone's System: sum(x) <= 2,
    the cone's main rows, then a sign row per variable."""
    cone = primal if primal.is_cone else primal_cone(primal).system
    nvars = len(cone.variables)
    ones = LinearExpr.from_terms({v: 1 for v in range(nvars)})
    rows = [Constraint(0, ones, Relation.LE, Fraction(2), Provenance.main())]
    mains = cone.main_rows()
    for i, row in enumerate(mains):
        rows.append(Constraint(1 + i, row.expr, Relation.LE, row.rhs, Provenance.main()))
    for v in range(nvars):
        rows.append(Constraint(1 + len(mains) + v, LinearExpr.from_terms({v: -1}), Relation.LE, ZERO, Provenance.sign()))
    return System(cone.variables, tuple(rows)), ones


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_working_rows_are_the_integer_rows_of_the_fraction_dual(data):
    # p/q coefficients; cone-flagged inputs, some of whose variables no main
    # row mentions (a zero column); capped primals, homogenized first.
    names = [f"x{i}" for i in range(data.draw(st.integers(0, 3)))]
    is_cone = data.draw(st.booleans())
    used = data.draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    coeffs = st.fixed_dictionaries({n: RATIONALS for n in used})
    rhs = st.just(0) if is_cone else RATIONALS
    rows = data.draw(st.lists(st.tuples(coeffs, st.just("<="), rhs), max_size=4))
    if not is_cone:
        caps = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
        rows += [({n: data.draw(caps)}, "<=", data.draw(RATIONALS)) for n in names]
    primal = make_system(names, mains=rows, nonneg="all", is_cone=is_cone)
    ws = build_working_system(primal)
    augmented, ones = capped_cone_reference(primal)
    assert ws.system == strong_elementary_dual(augmented, ones, sigma=2).system
    # integer_rows refuses a '<' row, so the working rows need no strict flag.
    assert ws.rows == integer_rows(ws.system)
    assert ws.variables == ws.system.variables
    assert [cid for cid, _ in ws.labels] == list(ws.system.ids())
    assert ws.system.constraint(ws.extension_id).provenance.kind == "extension"
    # Each row's scale turns its integer row into the Fraction row.
    for (_, coeffs, rhs, _), (num, den), c in zip(ws.rows, ws.scales, ws.system.constraints, strict=True):
        assert c.expr == LinearExpr.from_terms((v, Fraction(x * num, den)) for v, x in enumerate(coeffs))
        assert c.rhs == Fraction(rhs * num, den)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(1) or original(*args, **kw))
    return calls


def test_run_builds_step_systems_only_when_read(monkeypatch):
    # run keeps each step's integer state.  Reading the texts, as
    # run_trial does, prints those states and builds no Fraction row, the
    # dual's included; reading the steps' systems builds the working
    # system's rows once and each rewritten row once, and keeps every
    # row a move leaves as it was.
    built = _counting(monkeypatch, lincert.pipeline, "fraction_row")
    trace = run(solvable_cone(), MAIN_SEQUENCE)
    assert built == []
    steps = trace.steps
    texts = [trace.working_text] + [s.text for s in steps] + [trace.terminal_text]
    assert [s.kind for s in steps] == ["original-main", "original-main", "converted-sign"]
    assert texts[-1] is texts[-2]
    assert built == []
    systems = [s.system for s in steps]
    working = trace.working.system
    befores = [working] + systems[:-1]
    rewritten = sum(c not in before.constraints for before, s in zip(befores, systems) for c in s.constraints)
    assert len(steps) == 3 and len(built) == len(working.constraints) + rewritten
    assert trace.terminal is steps[-1].system and trace.steps is steps
    assert [s.system for s in trace.steps] == systems and trace.working_text is texts[0]
    assert trace.working.system is working and len(built) == len(working.constraints) + rewritten


def test_each_move_is_pivoted_once(monkeypatch):
    # run pivots each move once, the zero move on its sign row included,
    # and keeps the state after it, so reading every text and every
    # Fraction system pivots nothing again.
    pivots = _counting(monkeypatch, lincert.pipeline, "pivot_integer_rows")
    for system, rule in [(solvable_cone(), MAIN_SEQUENCE), (pinched_cone(), MAIN_ROWS_FIRST), (ZERO_MOVE_CONE, MAIN_ROWS_FIRST)]:
        pivots.clear()
        trace = run(system, rule)
        assert len(pivots) == len(trace.steps)
        pivots.clear()
        assert_texts_match_the_fraction_replay(trace)  # reads every text and system
        assert pivots == []


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
    augmented, ones = capped_cone_reference(solvable_cone())
    sd = strong_elementary_dual(augmented, ones, sigma=2)
    lam = multipliers_from_primal_solution(augmented, sd, Point.of({0: 1, 1: 1}))
    assert check_multiplier_certificate(ws.system, lam)
    assert lam.get(ws.extension_id) == 1
    system = ws.system
    for var_name, row_label in MAIN_SEQUENCE.sequence:
        var = system.variables.index(var_name)
        labels = {cid: lab for cid, lab in ws.labels if system.has_constraint(cid)}
        pivot = next(c for c in system.constraints if labels.get(c.cid) == row_label)
        cls = classify(system, var, pivot.cid)
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
        run(solvable_cone(), pivot_sequence([("l2", "row-x"), ("l2", "row-y"), ("l3", "sign-l3")]))


@pytest.mark.parametrize(
    "primal, rule, message",
    [
        (solvable_cone(), pivot_sequence([("l9", "row-x"), ("l2", "row-y"), ("l4", "sign-l3")]), "no multiplier variable named 'l9'"),
        (solvable_cone(), pivot_sequence([("l9", "row-x"), ("l3", "row-y"), ("l2", "sign-l3")]), "no multiplier variable named 'l9'"),
        (solvable_cone(), pivot_sequence([("l3", "row-x")]), "exactly once"),
        (solvable_cone(), pivot_sequence([("l3", "row-x"), ("l3", "row-y"), ("l4", "sign-l3")]), "exactly once"),
        (solvable_cone(), pivot_sequence([("l2", "row-x"), ("l2", "row-y"), ("l3", "sign-l3")]), "exactly once"),
        (solvable_cone(), pivot_sequence([("l1", "row-x"), ("l2", "row-y"), ("l3", "sign-l3"), ("l4", "row-x")]), "exactly once"),
        (solvable_cone(), pivot_sequence([("l3", "row-q"), ("l2", "row-y"), ("l4", "sign-l3")]), "no row labeled 'row-q'"),
        (solvable_cone(), pivot_sequence([("l3", "sign-l3"), ("l2", "row-y"), ("l4", "row-x")]), "'sign-l3' is not an admissible pivot"),
        (solvable_cone(), pivot_sequence([("l3", "extension"), ("l2", "row-y"), ("l4", "row-x")]), "'extension' is not an admissible pivot"),
        (pinched_cone(), pivot_sequence([("l3", "row-x"), ("l2", "row-y")]), "'row-y' does not mention l2"),
        (solvable_cone(), pivot_sequence([("l3", "zero"), ("l2", "row-y"), ("l4", "sign-l3")]), "l3 cannot take the zero move: a pivotable row mentions it"),
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
        _moves(integer_rows(system), 1)


def test_drop_sign_row_refuses_a_row_that_still_mentions_the_variable():
    # The zero move pivots on the sign row, which drops it alone.
    rows = (
        ("extension", (2, 1), 2, False),
        ("sign-l1", (-1, 0), 0, False),
        ("sign-l2", (0, -1), 0, False),
    )
    assert _moves(rows[1:], 1) == [1]
    assert pivot_integer_rows(rows[1:], 1, 1) == rows[1:2]
    with pytest.raises(InvariantError, match="still mentions"):
        _moves(rows, 1)


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


def _cyclic_garbage_after(call):
    """How many objects the cycle collector finds after call(), run with
    the collector off from a clean heap."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("budget, draws", [(20, 60), (4000, 20)], ids=["budget-20", "default-budget"])
def test_explore_leaves_no_cyclic_garbage(budget, draws):
    # visit calls itself through its closure cell; unless explore clears
    # it, both memos and every rows tuple wait for the cycle collector,
    # after a finished walk and after a budget hit alike.
    params = GenParams(seed=42)
    systems = [generate_bounded(CounterStream(42, f"trial-{i}"), params) for i in range(draws)]
    ended = {"returned": 0, "budget hit": 0}

    def walks():
        for system in systems:
            try:
                explore(system, state_budget=budget)
                ended["returned"] += 1
            except ExploreBudgetExceeded:
                ended["budget hit"] += 1

    assert _cyclic_garbage_after(walks) == 0
    assert min(ended.values()) > 0


def test_explore_witness_sequences_replay():
    for system in (pinched_cone(), ZERO_MOVE_CONE):
        for outcome in explore(system).outcomes:
            trace = run(system, pivot_sequence(outcome.sequence))
            assert trace.interval == outcome.interval
            assert trace.verdict == outcome.verdict


def reference_explore(primal):
    """Every pivot sequence walked with no memo on Fraction systems, through
    the formula in `fraction_reference`: the first witness per outcome in
    walk order, and the number of sequences."""
    ws = build_working_system(primal)
    names = ws.system.variables
    labels = dict(ws.labels)
    outcomes = {}
    count = 0

    def walk(system, remaining, prefix):
        nonlocal count
        if not remaining:
            interval = terminal_interval(system, LAMBDA_ONE)
            verdict = "solvable" if interval.is_point(1) else "unsolvable"
            outcomes.setdefault((interval, verdict), prefix)
            count += 1
            return
        for var in sorted(remaining):
            pivots = [
                c for c in sorted(system.constraints, key=lambda c: c.cid)
                if c.provenance.kind not in ("sign", "extension") and c.expr.coeff(var) != 0
            ]
            for pivot in pivots:
                head = (names[var], labels[pivot.cid])
                walk(substitute_fraction(system, var, pivot.cid), remaining - {var}, prefix + (head,))
            if not pivots:
                walk(_fraction_fallback(system, var), remaining - {var}, prefix + ((names[var], "zero"),))

    walk(ws.system, frozenset(v for v in range(len(names)) if v != LAMBDA_ONE), ())
    return outcomes, count


def _fraction_fallback(system, var):
    sign = system.sign_row_for(var)
    rest = system.with_rows(c for c in system.constraints if c is not sign)
    assert all(c.expr.coeff(var) == 0 for c in rest.constraints)
    return rest


def small_draws(seed, wanted, max_multipliers):
    draws = []
    i = 0
    while len(draws) < wanted:
        system = generate_bounded(CounterStream(seed, f"draw-{i}"), GenParams(seed=seed))
        i += 1
        if len(build_working_system(system).variables) <= max_multipliers:
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
    if len(build_working_system(system).variables) > 6:
        return
    rows = []
    for c in system.constraints:
        k = 1 if c.provenance.kind == "sign" else data.draw(st.integers(1, 7))
        rows.append(Constraint(c.cid, c.expr.scale(k), c.relation, c.rhs * k, c.provenance))
    base, scaled = explore(system), explore(system.with_rows(rows))
    assert scaled.outcomes == base.outcomes
    assert scaled.sequence_count == base.sequence_count


def signature_walk(primal):
    """Every pivot sequence walked on integer rows, with no memo on the
    rows alone: the rows met under each name explore gives a child
    (remaining variables, pivot row ids), and the distinct (remaining,
    rows) states.  A (name, rows) pair met again is not walked again: its
    subtree meets the same pairs."""
    ws = build_working_system(primal)
    rows_by_signature: dict = {}
    states = set()

    def walk(rows, remaining, taken):
        met = rows_by_signature.setdefault((remaining, taken), set())
        if rows in met:
            return
        met.add(rows)
        states.add((remaining, rows))
        for var in sorted(remaining):
            rest = remaining - {var}
            pivots = [i for i, row in enumerate(rows) if row[3] and row[1][var]]
            for p in pivots:
                walk(pivot_integer_rows(rows, p, var), rest, taken | {rows[p][0]})
            if not pivots:
                walk(_drop_reference(rows, var), rest, taken)

    remaining = frozenset(v for v in range(len(ws.variables)) if v != LAMBDA_ONE)
    walk(ws.rows, remaining, frozenset())
    return rows_by_signature, states


def _drop_reference(rows, var):
    """The zero move written out: drop var's sign row -var <= 0, which must
    be the one row that mentions var."""
    mentions = [row for row in rows if row[1][var]]
    assert len(mentions) == 1 and not mentions[0][3]
    assert mentions[0][1] == tuple(-(v == var) for v in range(len(mentions[0][1])))
    return tuple(row for row in rows if not row[1][var])


def assert_names_are_states(system):
    # The remaining variables and the pivot rows taken fix the rows, and
    # two names never meet the same state, so explore's visits are the
    # distinct (remaining, rows) states.
    rows_by_signature, states = signature_walk(system)
    assert all(len(met) == 1 for met in rows_by_signature.values())
    assert len(rows_by_signature) == len(states)
    result = explore(system)
    assert result.states == len(states)
    assert explore(system, state_budget=result.states) == result
    with pytest.raises(ExploreBudgetExceeded):
        explore(system, state_budget=result.states - 1)
    return result


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
@example(seed=150)  # a draw whose walk makes the zero move; about one in 180 does
def test_pivot_set_fixes_the_rows(seed):
    # Substituting through a set of pivot rows gives the same rows whatever
    # order the pivots come in, so explore names each child by the pivot
    # rows taken before computing it; that memo must leave the walk unchanged.
    system = generate_bounded(CounterStream(seed, "pivot-set"), GenParams(max_vars=3, max_cons=3, seed=seed))
    if len(build_working_system(system).variables) > 6:
        return
    assert_names_are_states(system)


@st.composite
def sparse_systems(draw):
    """Small standard-shape systems whose coefficients are mostly zero,
    with some all-zero rows 0 <= 0: cone-flagged homogeneous ones, and
    bounded ones capped by a box x <= U per variable."""
    names = [f"x{j + 1}" for j in range(draw(st.integers(1, 3)))]
    cone = draw(st.booleans())
    coefficient = st.sampled_from((0, 0, 0, -2, -1, 1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4 if cone else 3))):
        coeffs = {name: a for name in names if (a := draw(coefficient))}
        rows.append((coeffs, "<=", 0 if cone or not coeffs else draw(st.integers(-3, 3))))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), ({}, "<=", 0))
    if not cone:
        rows.extend(({name: 1}, "<=", draw(st.integers(1, 3))) for name in names)
    return make_system(names, mains=rows, nonneg="all", is_cone=cone)


@settings(max_examples=120, deadline=None)
@given(system=sparse_systems())
def test_zero_moves_are_fixed_by_the_input(system):
    # A multiplier takes the zero move exactly when no pivotable row
    # mentions it at the start (its cone row is 0 <= 0), on every path, so
    # the zero labels of each witness sequence fall on those multipliers.
    ws = build_working_system(system)
    if len(ws.variables) > 7:
        return
    zero = {
        ws.variables[v]
        for v in range(len(ws.variables))
        if v != LAMBDA_ONE and not any(row[3] and row[1][v] for row in ws.rows)
    }
    result = assert_names_are_states(system)
    for outcome in result.outcomes:
        assert {name for name, label in outcome.sequence if label == "zero"} == zero


@st.composite
def traced_inputs(draw):
    """Bounded GenParams draws, box and filter, and sparse_systems draws,
    whose cone-flagged ones reach the zero move."""
    kind = draw(st.sampled_from(["box", "filter", "sparse"]))
    if kind == "sparse":
        return draw(sparse_systems())
    seed = draw(st.integers(0, 10**6))
    return generate_bounded(CounterStream(seed, "texts"), GenParams(max_vars=3, max_cons=4, mode=kind, seed=seed))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scaled_rows_print_as_their_fraction_system(data):
    # Integer rows times scales, as the pipeline's replay holds them: main
    # and rewritten rows (pivotable), the extension, and sign rows -x <= 0
    # (neither), against print_system of the Fraction system.
    n = data.draw(st.integers(1, 4))
    vs = tuple(f"l{i + 1}" for i in range(n))
    ints = st.integers(-6, 6)
    scale = st.tuples(st.integers(0, 12), st.integers(1, 12))
    rows, scales, constraints = [], [], []
    extension_id = data.draw(st.integers(0, 7))
    for cid in range(data.draw(st.integers(0, 8))):
        num, den = data.draw(scale)
        if cid == extension_id or data.draw(st.booleans()):
            coeffs, rhs = tuple(data.draw(st.lists(ints, min_size=n, max_size=n))), data.draw(ints)
            if not num:  # a rewritten row that came out 0 <= 0 has scale (0, den)
                coeffs, rhs = (0,) * n, 0
            pivotable = cid != extension_id
            kind = Provenance.main() if pivotable else Provenance.extension()
        else:
            var = data.draw(st.integers(0, n - 1))
            coeffs, rhs, pivotable, num, den = tuple(-(v == var) for v in range(n)), 0, False, 1, 1
            kind = Provenance.sign()
        rows.append((cid, coeffs, rhs, pivotable))
        scales.append((num, den))
        expr = LinearExpr.from_terms((v, Fraction(x * num, den)) for v, x in enumerate(coeffs))
        constraints.append(Constraint(cid, expr, Relation.LE, Fraction(rhs * num, den), kind))
    expected = print_system(System(vs, tuple(constraints)), orientation="ge")
    assert lincert.pipeline._print_scaled_rows(vs, tuple(rows), tuple(scales), extension_id) == expected


def assert_texts_match_the_fraction_replay(trace):
    # The texts, read before any Fraction system, against print_system of
    # the moves replayed by the reference formula, which substitute_through
    # matches; then the trace's own Fraction systems against the same
    # replay, provenance included.
    texts = [trace.working_text] + [step.text for step in trace.steps] + [trace.terminal_text]
    system = trace.working.system
    systems = [system]
    for step in trace.steps:
        if step.pivot_id is None:
            system = _fraction_fallback(system, step.var)
        else:
            through = substitute_through(system, step.var, step.pivot_id)
            system = substitute_fraction(system, step.var, step.pivot_id)
            assert through == system
        systems.append(system)
    systems.append(system)
    assert texts == [print_system(s, orientation="ge") for s in systems]
    assert [step.system for step in trace.steps] == systems[1:-1]
    assert trace.terminal == system


ZERO_MOVE_CONE = parse("vars: x1 x2\ncone\nx1 - x2 <= 0\n0*x1 <= 0\nnonneg: all\n")


@settings(max_examples=150, deadline=None)
@given(system=traced_inputs(), pick=st.integers(0, 10**6))
@example(system=ZERO_MOVE_CONE, pick=0)  # l3, the 0 <= 0 row's multiplier, takes the zero move
@example(system=pinched_cone(), pick=1)  # a paper-seq witness
def test_texts_are_the_printed_fraction_replay(system, pick):
    # The default rule, or an explore witness as a paper-seq rule.
    trace = run(system)
    if pick and len(trace.working.variables) <= 6:
        witnesses = [o.sequence for o in explore(system).outcomes]
        trace = run(system, pivot_sequence(witnesses[pick % len(witnesses)]))
    assert_texts_match_the_fraction_replay(trace)


@settings(max_examples=150, deadline=None)
@given(system=traced_inputs())
@example(system=ZERO_MOVE_CONE)  # l3, the 0 <= 0 row's multiplier, takes the zero move
def test_every_printed_sequence_replays(system):
    # Each explore witness, printed as solve9 --explore prints it and read
    # back as --rule paper-seq: text, ends where explore says it does.
    if len(build_working_system(system).variables) > 6:
        return
    for outcome in explore(system).outcomes:
        trace = run(system, parse_rule("paper-seq:" + format_sequence(outcome.sequence)))
        assert (trace.interval, trace.verdict) == (outcome.interval, outcome.verdict)
        assert [(s.var_name, s.pivot_label or "zero") for s in trace.steps] == list(outcome.sequence)


@settings(max_examples=150, deadline=None)
@given(system=traced_inputs())
@example(system=ZERO_MOVE_CONE)  # l3, the 0 <= 0 row's multiplier, takes the zero move
@example(system=parse("vars: x\ncone\nnonneg: all\n"))  # only l1: no move, one state
def test_the_state_count_is_the_budget_boundary(system):
    # states counts each distinct state once, on its first visit: it is
    # the reference walk's number of distinct states, a budget of exactly
    # that many returns the same result, and one fewer stops the walk.  A
    # walk that also counts memo hits fails the first check, and the last
    # too unless its budget check sees those hits.
    if len(build_working_system(system).variables) > 6:
        return
    result = explore(system)
    assert result.states == len(signature_walk(system)[1])
    assert explore(system, state_budget=result.states) == result
    with pytest.raises(ExploreBudgetExceeded) as hit:
        explore(system, state_budget=result.states - 1)
    assert str(hit.value) == f"pivot tree exceeds {result.states - 1} distinct states"


def ends_at_a_closed_one(interval):
    """The interval holds 1 and ends there: [lo, 1] or (lo, 1], lo < 1, or {1}."""
    if interval.empty or interval.hi != 1 or interval.hi_open:
        return False
    return interval.lo is None or interval.lo < 1 or (interval.lo == 1 and not interval.lo_open)


@settings(max_examples=300, deadline=None)
@given(system=traced_inputs())
@example(system=pinched_cone())  # pivot-sensitive: explore meets both verdicts
def test_an_unsolvable_verdict_is_never_wrong(system):
    # The one-sided error the pipeline docstring proves: every terminal
    # interval, of run and of each explore outcome, holds 1 and ends at a
    # closed 1, and a primal with an unsolvable verdict is unsolvable.
    trace = run(system)
    outcomes = [(trace.interval, trace.verdict)]
    if len(trace.working.variables) <= 7:
        try:
            outcomes += [(o.interval, o.verdict) for o in explore(system).outcomes]
        except ExploreBudgetExceeded:
            pass
    assert all(ends_at_a_closed_one(interval) for interval, _ in outcomes)
    if any(verdict == "unsolvable" for _, verdict in outcomes):
        assert not oracle_verdict(system)


def test_the_zero_move_example_takes_the_zero_move():
    trace = run(ZERO_MOVE_CONE)
    assert [(s.var_name, s.kind) for s in trace.steps if s.pivot_id is None] == [("l3", "fallback-zero")]


BASELINE = Path(__file__).resolve().parent.parent / "baseline" / "difftest-seed42-trials500.json"


def test_run_steps_match_the_fraction_formula_on_the_baseline():
    # The working system and every step system of the default rule on the
    # 500 seed-42 baseline systems, against the Fraction dual of the capped
    # cone and the Fraction formula and substitute_through applied to the
    # step before, provenance included.
    for trial in json.loads(BASELINE.read_text())["trials"]:
        primal = parse(trial["system"])
        trace = run(primal)
        augmented, ones = capped_cone_reference(primal)
        system = trace.working.system
        assert system == strong_elementary_dual(augmented, ones, sigma=2).system
        for step in trace.steps:
            if step.pivot_id is None:
                expected = _fraction_fallback(system, step.var)
            else:
                expected = substitute_fraction(system, step.var, step.pivot_id)
                assert substitute_through(system, step.var, step.pivot_id) == expected
            assert step.system == expected
            system = step.system
        assert trace.terminal == system
        assert trace.interval == terminal_interval(system, LAMBDA_ONE)


def permuted(system, var_order, row_order):
    """The same system with its variables in var_order and its main rows in
    row_order, sign rows last; constraint ids renumbered."""
    names = tuple(system.variables[v] for v in var_order)
    new_index = {v: i for i, v in enumerate(var_order)}
    mains = system.main_rows()
    rows = [mains[i] for i in row_order] + list(system.sign_rows())
    return System(
        names,
        tuple(
            Constraint(cid, LinearExpr.from_terms({new_index[v]: a for v, a in c.expr.terms}), c.relation, c.rhs, c.provenance)
            for cid, c in enumerate(rows)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_explore_is_invariant_under_variable_and_row_permutation(seed, data):
    # A permutation only renames multipliers and rows, so the pivot tree is
    # the same tree: the same terminal outcomes, as many sequences and as
    # many distinct states.
    system = generate_bounded(CounterStream(seed, "permute"), GenParams(max_vars=3, max_cons=3, seed=seed))
    if len(build_working_system(system).variables) > 6:
        return
    var_order = data.draw(st.permutations(range(len(system.variables))))
    row_order = data.draw(st.permutations(range(len(system.main_rows()))))
    base, moved = explore(system), explore(permuted(system, var_order, row_order))
    assert {(o.interval, o.verdict) for o in moved.outcomes} == {(o.interval, o.verdict) for o in base.outcomes}
    assert moved.sequence_count == base.sequence_count
    assert moved.pivot_sensitive == base.pivot_sensitive
    assert moved.states == base.states
