import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from fraction_reference import (
    back_substitute_fraction,
    eliminate_var_fraction,
    equality_certificate_reference,
    farkas_reference,
    normalized_key,
    sample_point,
    tight_rows_fraction,
)
from lincert.core import (
    Constraint,
    InfeasibleSystemError,
    InvariantError,
    LinearExpr,
    MultiplierVector,
    Point,
    Provenance,
    Relation,
    RelationError,
    UnknownConstraintError,
    UnknownVariableError,
    combine,
    evaluate,
    make_system,
)
from lincert.fourier import (
    EliminationTrace,
    ProducedRow,
    _History,
    _chain,
    _cheapest_var,
    eliminate_var,
    equality_certificate,
    farkas_from_trace,
    feasibility,
    is_infeasibility_certificate,
    project,
)
from lincert.sysfile import parse


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def parasite_cone():
    return make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 1}, "<=", 0),
            ({"x": 2, "y": -1}, "<=", 0),
            ({"x": -1, "y": 2}, "<=", 0),
        ],
    )


def normalized_keys(system):
    return sorted(normalized_key(c) for c in system.constraints)


def keys_of(rows, variables):
    sys = make_system(variables, mains=rows)
    return normalized_keys(sys)


def satisfies_all(system, point):
    return all(evaluate(c, point) for c in system.constraints)


def test_eliminate_parasite_cone_matches_scaled_projection():
    out, trace = eliminate_var(parasite_cone(), 0)
    # Both produced rows are positive multiples of y <= 0; after content
    # normalization they merge into a single row.
    assert normalized_keys(out) == keys_of([({"y": 1}, "<=", 0)], ["x", "y"])
    (step,) = trace.steps
    assert len(step.produced) == 1
    assert len(step.produced[0].derivations) == 2


def test_eliminate_one_sided_drops_everything():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 1)])
    out, _ = eliminate_var(sys, 0)
    assert out.constraints == ()


def test_eliminate_forced_contradiction():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", -1)])
    out, trace = eliminate_var(sys, 0)
    assert [c.expr.is_zero for c in out.constraints] == [True]
    assert out.constraints[0].rhs == -1
    lam = farkas_from_trace(trace, out.constraints[0].cid)
    assert lam == MultiplierVector.of({0: 1, 1: 1})


def test_eliminate_unknown_variable():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 1)])
    with pytest.raises(UnknownVariableError):
        eliminate_var(sys, 3)


def test_eliminate_rejects_equalities():
    sys = make_system(["x"], mains=[({"x": 1}, "=", 1)])
    with pytest.raises(RelationError):
        eliminate_var(sys, 0)


def test_trace_replays_exactly():
    sys = parasite_cone()
    out, trace = eliminate_var(sys, 0)
    for produced in trace.steps[0].produced:
        row = out.constraint(produced.cid)
        for derivation in produced.derivations:
            combined = combine(sys, MultiplierVector.of(dict(derivation)))
            assert combined.expr == row.expr
            assert combined.rhs == row.rhs
            assert combined.relation == row.relation


def test_feasibility_of_worked_example():
    sys = section2_primal()
    verdict = feasibility(sys)
    assert verdict.feasible
    assert satisfies_all(sys, verdict.witness)
    assert evaluate(sys.constraint(0), Point.from_names(sys, {"x": 0, "y": 1}))


def test_feasibility_infeasible_variant_certifies():
    sys = section2_primal(rhs1=-2, rhs2=1)
    verdict = feasibility(sys)
    assert not verdict.feasible
    lam = verdict.certificate
    assert is_infeasibility_certificate(sys, lam)
    # Rows 1 + 2 alone already force [0] <= -1.
    assert lam == MultiplierVector.of({0: 1, 1: 1})


def test_feasibility_checks_its_farkas_certificate(monkeypatch):
    # A replay that gives a vector whose combination is no contradiction
    # is a lincert bug: feasibility raises and stores nothing.
    sys = section2_primal(rhs1=-2, rhs2=1)
    monkeypatch.setattr("lincert.fourier.farkas_from_trace", lambda trace, cid: MultiplierVector.of({0: 1}))
    with pytest.raises(InvariantError, match="Farkas certificate"):
        feasibility(sys)
    assert sys._memo == {}


@pytest.mark.parametrize(
    "rows, point, failing",
    [
        # The origin fails x - y <= -1 (row 1).
        ([({"x": -1, "y": 1}, "<=", 2), ({"x": 1, "y": -1}, "<=", -1)], [0, 0], 1),
        # x = 1 is on the feasible side of x < 1 but tight there (row 0).
        ([({"x": 1}, "<", 1), ({"x": -1}, "<", 1)], [1, 0], 0),
    ],
)
def test_feasibility_checks_its_witness(monkeypatch, rows, point, failing):
    # A back-substitution that gives a point failing a row, or tight on a
    # strict row, is a lincert bug: feasibility raises and stores nothing.
    sys = make_system(["x", "y"], mains=rows)
    monkeypatch.setattr("lincert.fourier._back_substitute", lambda history, nvars: (point, 1))
    with pytest.raises(InvariantError, match=f"witness fails constraint {failing}$"):
        feasibility(sys)
    assert sys._memo == {}


def test_feasibility_empty_system():
    sys = make_system(["x", "y"])
    verdict = feasibility(sys)
    assert verdict.feasible
    assert verdict.witness == Point.of({0: 0, 1: 0})


def test_strict_rows_are_respected():
    open_empty = make_system(["x"], mains=[({"x": 1}, "<", 0), ({"x": -1}, "<", 0)])
    verdict = feasibility(open_empty)
    assert not verdict.feasible
    assert is_infeasibility_certificate(open_empty, verdict.certificate)

    open_interval = make_system(["x"], mains=[({"x": 1}, "<", 1), ({"x": -1}, "<", 0)])
    verdict = feasibility(open_interval)
    assert verdict.feasible
    assert satisfies_all(open_interval, verdict.witness)


def test_project_keep_identity():
    sys = section2_primal()
    out = project(sys, {0, 1})
    assert out is sys or normalized_keys(out) == normalized_keys(sys)


def test_project_simplex_onto_y():
    sys = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 1), ({"x": -1}, "<=", 0), ({"y": -1}, "<=", 0)],
    )
    out = project(sys, {1})
    assert all(c.expr.coeff(0) == 0 for c in out.constraints)
    # Independent endpoint check: y ranges over [0, 1] exactly.
    for y, inside in [(Fraction(-1, 2), False), (Fraction(0), True), (Fraction(1, 2), True), (Fraction(1), True), (Fraction(3, 2), False)]:
        point = Point.of({0: 0, 1: y})
        assert satisfies_all(out, point) == inside


def test_project_parasite_cone():
    out = project(parasite_cone(), {1})
    assert normalized_keys(out) == keys_of([({"y": 1}, "<=", 0)], ["x", "y"])


def test_farkas_unknown_id():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", -1)])
    _, trace = eliminate_var(sys, 0)
    with pytest.raises(UnknownConstraintError):
        farkas_from_trace(trace, 999)


def test_farkas_multi_step_chain():
    # Three variables forced into an impossible cycle: x <= y, y <= z,
    # z <= x - 1 has no solution.
    sys = make_system(
        ["x", "y", "z"],
        mains=[
            ({"x": 1, "y": -1}, "<=", 0),
            ({"y": 1, "z": -1}, "<=", 0),
            ({"z": 1, "x": -1}, "<=", -1),
        ],
    )
    verdict = feasibility(sys)
    assert not verdict.feasible
    assert is_infeasibility_certificate(sys, verdict.certificate)
    assert verdict.certificate == MultiplierVector.of({0: 1, 1: 1, 2: 1})


def _random_system(rng, max_vars=3, max_rows=4, bound=3, relations=("<=",), min_vars=1, min_rows=1):
    nvars = rng.randint(min_vars, max_vars)
    names = [f"x{i}" for i in range(nvars)]
    rows = []
    for _ in range(rng.randint(min_rows, max_rows)):
        coeffs = {n: rng.randint(-bound, bound) for n in names}
        rows.append((coeffs, rng.choice(relations), rng.randint(-bound, bound)))
    return make_system(names, mains=rows)


def test_verdicts_are_sound_on_random_systems():
    rng = random.Random(1234)
    feasible_seen = infeasible_seen = 0
    for _ in range(300):
        sys = _random_system(rng)
        verdict = feasibility(sys)
        if verdict.feasible:
            feasible_seen += 1
            assert satisfies_all(sys, verdict.witness)
        else:
            infeasible_seen += 1
            assert is_infeasibility_certificate(sys, verdict.certificate)
            assert not verdict.certificate.is_zero
    assert feasible_seen and infeasible_seen


def test_elimination_preserves_feasibility_status():
    rng = random.Random(99)
    for _ in range(150):
        sys = _random_system(rng)
        var = rng.randrange(len(sys.variables))
        before = feasibility(sys).feasible
        out, _ = eliminate_var(sys, var)
        after = feasibility(out).feasible
        assert before == after


def _direct_interval_feasible(system, var, values):
    """Independent oracle: intersect the bounds on `var` read row by row."""
    lo = hi = None
    lo_strict = hi_strict = False
    for c in system.constraints:
        a = c.expr.coeff(var)
        residue = c.rhs - c.expr.drop(var).value_at(Point.of(values))
        if a == 0:
            if not c.relation.holds(Fraction(0), residue):
                return False
            continue
        bound = residue / a
        strict = c.relation is Relation.LT
        if a > 0 and (hi is None or bound < hi or (bound == hi and strict)):
            hi, hi_strict = bound, strict
        if a < 0 and (lo is None or bound > lo or (bound == lo and strict)):
            lo, lo_strict = bound, strict
    if lo is None or hi is None:
        return True
    if lo < hi:
        return True
    return lo == hi and not lo_strict and not hi_strict


def test_single_elimination_matches_interval_oracle_on_grid():
    rng = random.Random(7)
    for _ in range(40):
        sys = _random_system(rng, max_vars=3, max_rows=4, bound=3)
        var = rng.randrange(len(sys.variables))
        out, _ = eliminate_var(sys, var)
        others = [v for v in range(len(sys.variables)) if v != var]
        grid = [Fraction(k, 2) for k in range(-8, 9)]
        for _ in range(25):
            values = {v: rng.choice(grid) for v in others}
            values[var] = Fraction(0)  # unused by rows without var
            projected_ok = all(
                evaluate(c, Point.of(values)) for c in out.constraints
            )
            assert projected_ok == _direct_interval_feasible(sys, var, values)


def test_sample_point_produces_feasible_variety():
    sys = section2_primal()
    rng = random.Random(5)
    points = {sample_point(sys, rng).values for _ in range(20)}
    assert len(points) > 3
    for values in points:
        assert satisfies_all(sys, Point(values))


def test_sample_point_refuses_infeasible_input():
    sys = section2_primal(rhs1=-2, rhs2=1)
    with pytest.raises(InfeasibleSystemError):
        sample_point(sys, random.Random(0))


def test_certificate_survives_heavy_pruning():
    # Pruning can shrink an intermediate system below earlier id ranges; the
    # trace must still resolve to input rows, not to whatever input row
    # happens to share a recycled id.
    sys = make_system(
        ["x1", "x2"],
        mains=[
            ({"x2": -1}, "<=", -3),
            ({"x1": 2, "x2": -3}, "<=", -5),
            ({"x2": -3}, "<=", -1),
            ({"x1": -4, "x2": 2}, "<=", -2),
            ({"x1": -5, "x2": -5}, "<=", -2),
            ({"x1": 1}, "<=", 4),
            ({"x2": 1}, "<=", 1),
        ],
        nonneg="all",
    )
    verdict = feasibility(sys)
    assert not verdict.feasible
    assert is_infeasibility_certificate(sys, verdict.certificate)


def _draw_mixed_rows(data, max_vars=3, max_rows=4):
    nvars = data.draw(st.integers(1, max_vars))
    names = [f"x{i}" for i in range(nvars)]
    rows = []
    for _ in range(data.draw(st.integers(1, max_rows))):
        coeffs = {n: data.draw(st.integers(-3, 3)) for n in names}
        rel = data.draw(st.sampled_from(["<=", "<"]))
        rows.append((coeffs, rel, data.draw(st.integers(-3, 3))))
    return names, rows


def _evidence_holds(system, verdict):
    if verdict.feasible:
        return satisfies_all(system, verdict.witness)
    return is_infeasibility_certificate(system, verdict.certificate)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certificates_always_verify(data):
    names, rows = _draw_mixed_rows(data)
    sys = make_system(names, mains=rows)
    assert _evidence_holds(sys, feasibility(sys))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verdict_is_invariant_under_order_permutation_and_scaling(data):
    # Permuting the variable table changes which variable wins a tie for
    # the cheapest, so the chain may eliminate in another order.
    names, rows = _draw_mixed_rows(data, max_vars=4, max_rows=6)
    base = make_system(names, mains=rows)
    expected = feasibility(base)
    assert _evidence_holds(base, expected)
    reordered = make_system(data.draw(st.permutations(names)), mains=rows)
    permuted = make_system(names, mains=data.draw(st.permutations(rows)))
    scales = [Fraction(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))) for _ in rows]
    scaled = make_system(
        names,
        mains=[({n: c * k for n, c in coeffs.items()}, rel, rhs * k) for (coeffs, rel, rhs), k in zip(rows, scales)],
    )
    for sys in (base, reordered, permuted, scaled):
        verdict = feasibility(sys)
        assert verdict.feasible == expected.feasible
        assert _evidence_holds(sys, verdict)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_farkas_replay_matches_the_descending_id_walk(data):
    # On an infeasible chain every derived row, the contradiction among
    # them, replays step by step to the same multipliers as the walk by
    # descending ids.  The chain ends its last step at the contradiction;
    # full steps by lone eliminate_var calls over one history, in the
    # chain's order, reach the same first contradiction, and its replay
    # is the verdict's certificate.
    names, rows = _draw_mixed_rows(data, max_vars=4, max_rows=7)
    nonneg = data.draw(st.lists(st.sampled_from(names), unique=True))
    system = make_system(names, mains=rows, nonneg=nonneg)
    verdict = feasibility(system)
    assume(not verdict.feasible)
    _, trace, bad, _ = _chain(system, set(range(len(names))))
    assert bad is not None
    for cid in [bad] + [row.cid for step in trace.steps for row in step.produced]:
        assert farkas_from_trace(trace, cid) == farkas_reference(trace, cid)
    history = _History(system)
    full = system
    for step in trace.steps:
        full = eliminate_var(full, step.var, history=history)[0]
    full_trace = EliminationTrace(frozenset(system.ids()), tuple(history.steps))
    contradictions = [c.cid for c in full.constraints if c.expr.is_zero and not c.relation.holds(0, c.rhs)]
    assert history.bad == contradictions[0] == bad
    assert verdict.certificate == farkas_from_trace(full_trace, bad)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_back_half_matches_the_fraction_reference(data):
    # Rows with p/q coefficients, all four relations and some variables
    # unsigned: the witness and the implicit ids (checked against the
    # equality certificate on read) equal the Fraction back-substitution
    # and tight-row test exactly.  The chain systems the reference reads
    # are rebuilt by public eliminate_var calls over one history, in the
    # order the chain chose.
    nvars = data.draw(st.integers(1, 4))
    names = [f"x{i}" for i in range(nvars)]
    lines = [f"vars: {' '.join(names)}"]
    for _ in range(data.draw(st.integers(1, 6))):
        coeffs = data.draw(st.lists(small_fractions, min_size=nvars, max_size=nvars))
        terms = " ".join(f"{'-' if a < 0 else '+'} {abs(a)}*{n}" for a, n in zip(coeffs, names))
        rel = data.draw(st.sampled_from(["<=", "<", ">=", ">"]))
        rhs = data.draw(small_fractions)
        lines.append(f"{terms} {rel} {'-' if rhs < 0 else ''}{abs(rhs)}")
    signed = data.draw(st.lists(st.sampled_from(names), unique=True))
    if signed:
        lines.append("nonneg: " + " ".join(signed))
    system = parse("\n".join(lines) + "\n")
    last, trace, bad, _ = _chain(system, set(range(nvars)))
    verdict = feasibility(system)
    assert verdict.feasible == (bad is None)
    if verdict.feasible:
        chosen = [step.var for step in trace.steps]
        history = _History(system)
        chain = [system]
        for var in chosen:
            chain.append(eliminate_var(chain[-1], var, history=history)[0])
        assert chain[-1] == last and tuple(history.steps) == trace.steps
        witness = back_substitute_fraction(chain, chosen)
        assert verdict.witness == witness
        assert verdict.implicit_ids == tight_rows_fraction(system, witness)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equality_certificate_matches_the_fraction_replay(data):
    # Fractional, partly strict rows, then copies of some of them scaled
    # by k (k < 0 makes the row and its copy an equality pair, so [0] <= 0
    # rows are derived), sometimes the coprime sum of a pair that cancels
    # x0 (it merges with the row eliminating x0 derives), perhaps with its
    # negation (so the merged row carries weight), and a [0] <= 0 row.  On
    # every feasible chain the integer replay equals the Fraction one by
    # repr.
    nvars = data.draw(st.integers(1, 4))
    names = [f"x{i}" for i in range(nvars)]
    row = st.tuples(st.lists(small_fractions, min_size=nvars, max_size=nvars), le_or_lt, small_fractions)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(rows) - 1))
        a, rel, r = rows[i]
        k = data.draw(st.sampled_from([1, -1, 3, Fraction(2, 3), Fraction(-1, 2)]))
        if k < 0:
            rel = "<="
            rows[i] = (a, rel, r)
        rows.append(([k * x for x in a], rel, k * r))
    pos = [row for row in rows if row[0][0] > 0]
    neg = [row for row in rows if row[0][0] < 0]
    if pos and neg and data.draw(st.booleans()):
        (p, p_rel, p_rhs), (n, n_rel, n_rhs) = data.draw(st.sampled_from(pos)), data.draw(st.sampled_from(neg))
        values = [x / p[0] - y / n[0] for x, y in zip(p + [p_rhs], n + [n_rhs])]
        den = lcm(*(v.denominator for v in values))
        ints = [int(v * den) for v in values]
        g = gcd(*ints) or 1
        rows.append(([x // g for x in ints[:-1]], "<" if "<" in (p_rel, n_rel) else "<=", ints[-1] // g))
        if rows[-1][1] == "<=" and data.draw(st.booleans()):
            rows.append(([-x // g for x in ints[:-1]], "<=", -ints[-1] // g))
    if data.draw(st.booleans()):
        rows.append(([0] * nvars, "<=", 0))
    nonneg = data.draw(st.lists(st.sampled_from(names), unique=True))
    system = make_system(names, mains=[(dict(zip(names, a)), rel, r) for a, rel, r in rows], nonneg=nonneg)
    _, trace, bad, _ = _chain(system, set(range(nvars)))
    if bad is None:
        lam = equality_certificate(system, trace)
        assert repr(lam) == repr(equality_certificate_reference(system, trace))


def test_equality_certificate_splits_a_merged_row_over_its_derivations():
    # Eliminating x derives y <= 1 from rows 0 and 1 with weights (1/2,
    # 1/2); it merges into row 2, which then has two derivations.  Rows 2
    # and 3 cancel to [0] <= 0 when y goes, so row 2's weight 1 splits in
    # half: 1/2 stays on it and 1/2 flows down the merged derivation.
    system = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 1), ({"x": -1, "y": 1}, "<=", 1), ({"y": 1}, "<=", 1), ({"y": -1}, "<=", -1)],
    )
    _, trace, bad, _ = _chain(system, {0, 1})
    assert bad is None and trace.steps[0].merged and trace.steps[1].zero_rows
    expected = MultiplierVector.of({0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2), 3: 1})
    assert equality_certificate(system, trace) == expected == equality_certificate_reference(system, trace)
    assert feasibility(system).equality_certificate == expected


def test_merged_duplicate_keeps_every_history():
    # The row x3 < 2 is derived twice, from inputs {3, 4, 5} and from
    # {0, 3, 4}.  The only 4-row certificate, {0, 1, 3, 4}, is built on the
    # second history: keeping only the first (or only the smallest) history
    # skips it, and back-substitution then meets an empty interval.
    base = parse(
        "vars: x1 x2 x3\n"
        "-x1 - 3*x2 - 2*x3 <= -4\n"
        "-5*x1 + 2*x2 - 5*x3 <= -10\n"
        "4*x1 - 3*x2 + 5*x3 <= 11\n"
        "x1 + x2 + x3 <= 2\n"
        "nonneg: all\n"
    )
    # The x1 sign row (id 4), made strict.
    sys = base.with_rows(
        Constraint(c.cid, c.expr, Relation.LT, c.rhs, c.provenance) if c.cid == 4 else c for c in base.constraints
    )
    verdict = feasibility(sys)
    assert not verdict.feasible
    assert is_infeasibility_certificate(sys, verdict.certificate)



def test_chernikov_limit_bounds_every_history():
    # After k eliminations every history holds at most k + 1 input ids
    # (_History).  A merged duplicate's first derivation may span more, so
    # the bound is read off the histories step by step, not off the trace.
    for seed in range(200):
        rng = random.Random(seed)
        system = _random_system(rng, max_vars=4, max_rows=7, relations=("<=", "<"), min_vars=3, min_rows=4)
        history = _History(system)
        pending = set(range(len(system.variables)))
        while pending:
            var = _cheapest_var(history.rows, pending)
            pending.remove(var)
            system, _ = eliminate_var(system, var, history=history)
            k = len(history.steps)
            assert all(h.bit_count() <= k + 1 for hs in history.of.values() for h in hs), (seed, k)


def matches_fraction_reference(system, var):
    """A lone eliminate_var call equals the Fraction formula exactly, types
    included: rows, ids, provenance, derivations, zero_rows and merged."""
    out, trace = eliminate_var(system, var)
    (step,) = trace.steps
    assert repr((out, step)) == repr(eliminate_var_fraction(system, var))
    return out, step


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
le_or_lt = st.sampled_from(["<=", "<"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pair_step_matches_the_fraction_formula(data):
    # Fractional, partly strict rows, then copies of some of them: scaled
    # by k (k = 1 with no shift is an exact duplicate, k = -1 with no shift
    # a pair that cancels) with the right side shifted by 0 or +-1.
    nvars = data.draw(st.integers(1, 3))
    names = [f"x{i}" for i in range(nvars)]
    row = st.tuples(st.lists(small_fractions, min_size=nvars, max_size=nvars), le_or_lt, small_fractions)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    for a, _, r in data.draw(st.lists(st.sampled_from(rows), max_size=4)):
        k = data.draw(st.sampled_from([1, -1, 3, Fraction(2, 3), Fraction(-1, 2)]))
        shift = data.draw(st.sampled_from([0, 0, 1, -1]))
        rows.append(([k * x for x in a], data.draw(le_or_lt), k * r + shift))
    nonneg = data.draw(st.lists(st.sampled_from(names), unique=True))
    system = make_system(names, mains=[(dict(zip(names, a)), rel, r) for a, rel, r in rows], nonneg=nonneg)
    matches_fraction_reference(system, data.draw(st.integers(0, nvars - 1)))


def test_strict_pair_cancelling_to_zero_keeps_unscaled_weights():
    system = make_system(["x"], mains=[({"x": 2}, "<", 3), ({"x": -3}, "<=", Fraction(-9, 2))])
    out, step = matches_fraction_reference(system, 0)
    (row,) = out.constraints
    assert (row.expr.is_zero, row.relation, row.rhs) == (True, Relation.LT, 0)
    assert step.produced == (ProducedRow(row.cid, (((0, Fraction(1, 2)), (1, Fraction(1, 3))),)),)
    assert step.zero_rows == ()


def test_pair_cancelling_to_zero_le_row_is_recorded_unscaled():
    system = make_system(["x"], mains=[({"x": 1}, "<=", 1), ({"x": -2}, "<=", -2)])
    out, step = matches_fraction_reference(system, 0)
    assert out.constraints == ()
    assert step.zero_rows == (((0, Fraction(1)), (1, Fraction(1, 2))),)
    assert step.produced == ()


def test_pass_through_row_merges_only_with_an_equal_derived_row():
    # Eliminating y from x + y <= 1 and -y <= 1 derives x <= 2.  The
    # pass-through 2x <= 4 bounds x the same way but is not the same row.
    rows = [({"x": 2}, "<=", 4), ({"x": 1, "y": 1}, "<=", 1), ({"y": -1}, "<=", 1)]
    out, step = matches_fraction_reference(make_system(["x", "y"], mains=rows), 1)
    assert [(c.cid, c.expr.terms, c.rhs) for c in out.constraints] == [(0, ((0, 2),), 4), (3, ((0, 1),), 2)]
    assert step.merged == ()
    rows[0] = ({"x": 1}, "<=", 2)
    out, step = matches_fraction_reference(make_system(["x", "y"], mains=rows), 1)
    assert [c.cid for c in out.constraints] == [0]
    assert step.merged == ((0, ((1, Fraction(1)), (2, Fraction(1)))),)


def test_pair_with_denominators():
    # 6 * (1/2 x + 1/3 y <= 5/6) + 3 * (-x + y <= 1) is 5y <= 8.
    rows = [({"x": Fraction(1, 2), "y": Fraction(1, 3)}, "<=", Fraction(5, 6)), ({"x": -1, "y": 1}, "<=", 1)]
    out, step = matches_fraction_reference(make_system(["x", "y"], mains=rows), 0)
    (row,) = out.constraints
    assert (row.expr.terms, row.relation, row.rhs) == (((1, Fraction(5)),), Relation.LE, Fraction(8))
    assert step.produced == (ProducedRow(row.cid, (((0, Fraction(6)), (1, Fraction(3))),)),)

def _pinned(system, values):
    """The system plus rows fixing each variable in `values`."""
    pins = []
    for v, x in values.items():
        pins += [(LinearExpr.from_terms({v: 1}), x), (LinearExpr.from_terms({v: -1}), -x)]
    first = system.next_id()
    extra = (Constraint(first + i, e, Relation.LE, r, Provenance.main()) for i, (e, r) in enumerate(pins))
    return system.with_rows(system.constraints + tuple(extra))


def test_multi_step_projection_is_exact_on_grid():
    # The projection holds at a grid point exactly when the system pinned
    # there is feasible; that verdict is trusted only with its evidence.
    rng = random.Random(11)
    grid = [Fraction(k, 2) for k in range(-6, 7)]
    for _ in range(40):
        sys = _random_system(rng, max_vars=4, max_rows=6, bound=3, relations=("<=", "<"))
        n = len(sys.variables)
        keep = set(rng.sample(range(n), rng.randint(0, n - 1)))
        out = project(sys, keep)
        assert all(set(c.expr.variables()) <= keep for c in out.constraints)
        for _ in range(12):
            values = {v: rng.choice(grid) for v in keep}
            pinned = _pinned(sys, values)
            verdict = feasibility(pinned)
            assert _evidence_holds(pinned, verdict)
            assert satisfies_all(out, Point.of(values)) == verdict.feasible
