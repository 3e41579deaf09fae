import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import homogenize_reference
import lincert.cone
import lincert.pipeline
from lincert.core import (
    Constraint,
    LincertError,
    LinearExpr,
    Provenance,
    Relation,
    RelationError,
    System,
    evaluate,
    make_system,
)
from lincert.cone import (
    NonHomogeneousError,
    dehomogenize,
    has_solution_at_infinity,
    is_bounded,
    is_full_dimensional,
    is_reduced_to_origin,
    primal_cone,
    recession_system,
)
from lincert.fourier import feasibility
from lincert.harness import CounterStream, GenParams, generate_bounded
from lincert.implicit import implicit_set, nonzero_multiplier_exists
from lincert.pipeline import build_working_system, explore, run
from lincert.sysfile import parse

BASELINE = Path(__file__).resolve().parents[1] / "baseline" / "difftest-seed42-trials500.json"


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def interval_primal():
    return make_system(["x"], mains=[({"x": 1}, "<=", 1)], nonneg="all")


def uncapped_bounded_primal():
    """Bounded, but no row without a negative coefficient caps it."""
    return make_system(
        ["x", "y"],
        mains=[({"x": 2, "y": -1}, "<=", 2), ({"x": -1, "y": 1}, "<=", 1)],
        nonneg="all",
    )


def pinched_cone():
    return make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
    )


def test_primal_cone_of_interval():
    cone = primal_cone(interval_primal())
    sys = cone.system
    assert sys.variables == ("x", "z")
    assert sys.is_cone
    main = sys.constraint(0)
    assert dict(main.expr.terms) == {0: Fraction(1), 1: Fraction(-1)}
    assert main.rhs == 0
    assert len(sys.sign_rows()) == 2
    assert cone.z_index == 1
    assert cone.row_origin == ((0, 0),)


def test_primal_cone_with_zero_rhs_keeps_rows():
    primal = make_system(["x", "y"], mains=[({"x": 1, "y": -2}, "<=", 0)], nonneg="all")
    cone = primal_cone(primal)
    main = cone.system.constraint(0)
    assert main.expr.coeff(cone.z_index) == 0
    assert dict(main.expr.terms) == {0: Fraction(1), 1: Fraction(-2)}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_homogenized_rows_match_the_from_terms_formula(data):
    # p/q coefficients with zeros among them and right sides zero or not:
    # the cone built from the main rows' sorted terms and direct sign rows
    # equals, by repr, the one built through LinearExpr.from_terms.
    nvars = data.draw(st.integers(1, 4))
    names = [f"x{i}" for i in range(nvars)]
    values = st.fractions(-3, 3, max_denominator=4)
    rights = st.one_of(st.just(0), values)
    count = data.draw(st.integers(0, 4))
    rows = [({n: data.draw(values) for n in names}, "<=", data.draw(rights)) for _ in range(count)]
    primal = make_system(names, mains=rows, nonneg="all")
    assert repr(lincert.cone._homogenize(primal)) == repr(homogenize_reference(primal))


def test_solution_at_infinity_of_worked_example():
    flag, ray = has_solution_at_infinity(section2_primal())
    assert flag
    # The ray satisfies the recession system and is not the origin.
    assert any(x != 0 for _, x in ray.values)
    assert -ray.value(0) + ray.value(1) <= 0
    assert ray.value(0) - ray.value(1) <= 0
    assert ray.value(0) >= 0 and ray.value(1) >= 0
    assert not is_bounded(section2_primal())


def test_interval_is_bounded():
    flag, ray = has_solution_at_infinity(interval_primal())
    assert not flag and ray is None
    assert is_bounded(interval_primal())


def test_halfplane_cone_has_a_ray():
    sys = make_system(["x", "y"], mains=[({"x": 1, "y": -1}, "<=", 0)], nonneg="all")
    flag, ray = has_solution_at_infinity(sys)
    assert flag
    assert ray.value(0) - ray.value(1) <= 0


def test_reduced_to_origin_cases():
    assert is_reduced_to_origin(pinched_cone())

    halfplane = make_system(["x", "y"], mains=[({"x": 1, "y": -1}, "<=", 0)], nonneg="all")
    assert not is_reduced_to_origin(halfplane)

    free_ray = make_system(["x"], nonneg="all")
    assert not is_reduced_to_origin(free_ray)


def test_reduced_to_origin_validates_input():
    with pytest.raises(NonHomogeneousError):
        is_reduced_to_origin(interval_primal())
    with pytest.raises(LincertError, match="sign"):
        is_reduced_to_origin(make_system(["x"], mains=[({"x": 1}, "<=", 0)]))


def test_full_dimensional_cases():
    assert is_full_dimensional(interval_primal())
    point_only = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    assert not is_full_dimensional(point_only)
    # The primal cone of a full-dimensional primal is full-dimensional too.
    assert is_full_dimensional(primal_cone(interval_primal()).system)


def test_infeasible_systems_are_not_full_dimensional():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", -1)], nonneg="all")
    assert not is_full_dimensional(sys)


def _random_bounded_primal(rng, max_vars=3, max_rows=4, bound=3):
    nvars = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        coeffs = {n: rng.randint(-bound, bound) for n in names}
        rows.append((coeffs, "<=", rng.randint(-bound, bound)))
    for n in names:  # per-variable caps make the recession cone trivial
        rows.append(({n: 1}, "<=", rng.randint(1, 5)))
    return make_system(names, mains=rows, nonneg="all")


def test_cone_primal_equivalence_on_bounded_systems():
    rng = random.Random(31)
    for _ in range(60):
        primal = _random_bounded_primal(rng)
        assert is_bounded(primal)
        cone = primal_cone(primal)
        assert feasibility(primal).feasible == (not is_reduced_to_origin(cone.system))


def test_dehomogenization():
    rng = random.Random(32)
    done = 0
    while done < 40:
        primal = _random_bounded_primal(rng)
        cone = primal_cone(primal)
        verdict = feasibility(cone.system)
        assert verdict.feasible  # a cone always contains the origin
        if verdict.witness.value(cone.z_index) <= 0:
            continue
        done += 1
        x = dehomogenize(cone, verdict.witness)
        assert all(evaluate(c, x) for c in primal.constraints)


def test_trichotomy_on_bounded_systems():
    rng = random.Random(33)
    seen = set()
    for _ in range(40):
        primal = _random_bounded_primal(rng, max_vars=2, max_rows=3, bound=2)
        cone = primal_cone(primal)
        solvable = feasibility(primal).feasible
        full_dim = is_full_dimensional(primal)
        reduced = is_reduced_to_origin(cone.system)
        cone_full = is_full_dimensional(cone.system)
        cone_multipliers, _ = nonzero_multiplier_exists(cone.system)
        case_one = solvable and full_dim and cone_full
        case_two = solvable and not full_dim and cone_multipliers and not reduced
        case_three = not solvable and reduced
        assert [case_one, case_two, case_three].count(True) == 1
        seen.add((case_one, case_two, case_three))
    assert len(seen) > 1


def test_dual_of_full_dimensional_primal_is_origin_only():
    from lincert.dual import elementary_dual

    rng = random.Random(34)
    done = 0
    while done < 30:
        primal = _random_bounded_primal(rng, max_vars=2, max_rows=3, bound=2)
        # An all-zero main row [0] <= 0 is tight everywhere without cutting
        # dimension, and its dual multiplier is a free ray; skip those.
        if any(c.expr.is_zero for c in primal.main_rows()):
            continue
        if not (feasibility(primal).feasible and is_full_dimensional(primal)):
            continue
        done += 1
        dual = elementary_dual(primal)
        assert is_reduced_to_origin(dual.system)


def _ray_by_coordinate(system):
    """Reference: probe x_v >= 1 for every coordinate, and x_v <= -1 for the
    unsigned ones, one at a time."""
    recession = recession_system(system)
    probes = []
    for v in range(len(system.variables)):
        probes.append({v: -1})
        if recession.sign_row_for(v) is None:
            probes.append({v: 1})
    for terms in probes:
        expr = LinearExpr.from_terms(terms)
        row = Constraint(recession.next_id(), expr, Relation.LE, Fraction(-1), Provenance.main())
        if feasibility(recession.with_rows(recession.constraints + (row,))).feasible:
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solution_at_infinity_matches_per_coordinate_probes(data):
    names = [f"x{i}" for i in range(data.draw(st.integers(1, 3)))]
    coeffs = st.fixed_dictionaries({n: st.integers(-3, 3) for n in names})
    row = st.tuples(coeffs | st.just({}), st.sampled_from(["<=", "<"]), st.integers(-2, 2))
    rows = data.draw(st.lists(row, max_size=4))
    if data.draw(st.booleans()):
        a, b = data.draw(coeffs), data.draw(st.integers(-2, 2))
        rows += [(a, "<=", b), ({n: -c for n, c in a.items()}, "<=", -b)]
    sys = make_system(names, mains=rows, nonneg=[n for n in names if data.draw(st.booleans())])
    flag, ray = has_solution_at_infinity(sys)
    assert flag == _ray_by_coordinate(sys)
    if flag:
        assert any(x != 0 for _, x in ray.values)
        assert all(evaluate(c, ray) for c in recession_system(sys).constraints)
    else:
        assert ray is None


def _count_feasibility_calls(monkeypatch):
    calls = []

    def counted(system):
        calls.append(system)
        return feasibility(system)

    monkeypatch.setattr(lincert.cone, "feasibility", counted)
    return calls


def test_is_bounded_on_signed_system_makes_one_probe(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    assert is_bounded(uncapped_bounded_primal())
    assert len(calls) == 1
    assert not is_bounded(section2_primal())
    assert len(calls) == 2


def test_capped_systems_make_no_probe(monkeypatch):
    analyze_style = make_system(
        ["x1", "x2", "x3"],
        mains=[
            ({"x1": 2, "x2": -1, "x3": 3}, "<=", 4),
            ({"x1": -1, "x2": 2, "x3": -2}, "<=", 1),
            ({"x1": 1, "x2": 1, "x3": 1}, "<=", 5),
        ],
        nonneg="all",
    )
    box_draw = generate_bounded(CounterStream(42, "trial-0"), GenParams(seed=42))
    calls = _count_feasibility_calls(monkeypatch)
    for system in (interval_primal(), box_draw, analyze_style):
        assert is_bounded(system)
        assert has_solution_at_infinity(system) == (False, None)
    assert is_reduced_to_origin(pinched_cone())
    assert calls == []


def test_errors_come_before_the_capping_rows():
    caps = [({"x": 1}, "<=", 1), ({"y": 1}, "<=", 1)]
    with pytest.raises(RelationError):
        is_bounded(make_system(["x", "y"], mains=caps + [({"x": 1, "y": -1}, "=", 0)], nonneg="all"))
    with pytest.raises(NonHomogeneousError):
        is_reduced_to_origin(make_system(["x", "y"], mains=caps, nonneg="all"))
    homogeneous = [({"x": 1}, "<=", 0), ({"y": 1}, "<=", 0)]
    with pytest.raises(LincertError, match="sign rows: y"):
        is_reduced_to_origin(make_system(["x", "y"], mains=homogeneous, nonneg=["x"]))
    with pytest.raises(RelationError):
        is_reduced_to_origin(make_system(["x", "y"], mains=homogeneous + [({"x": 1}, "=", 0)], nonneg="all"))


def _loosen_sign_row(system, var, rhs):
    sign = system.sign_row_for(var)
    loose = Constraint(sign.cid, sign.expr, Relation.LE, Fraction(rhs), sign.provenance)
    return system.with_rows(loose if c is sign else c for c in system.constraints)


def test_capping_rows_need_sign_rows_that_pin_x_at_zero():
    # The sign row -x <= 3 allows x < 0, but its recession row is -x <= 0, so
    # the cap 2x + y <= 0 pins the recession cone at the origin: the system
    # (x in [-3, 0], y in [0, 6]) is bounded.
    capped = make_system(["x", "y"], mains=[({"x": 2, "y": 1}, "<=", 0)], nonneg="all")
    system = _loosen_sign_row(capped, 0, 3)
    assert all(c.rhs == 0 for c in recession_system(system).constraints)
    assert is_bounded(system)
    assert has_solution_at_infinity(system) == (False, None) == _probing_solution_at_infinity(system)
    # On unbounded systems with loose sign rows, every ray returned is a
    # recession direction: it satisfies each row with its right side zeroed.
    wedge = make_system(["x", "y"], mains=[({"x": 1, "y": -2}, "<=", 1)], nonneg="all")
    for loose in (_loosen_sign_row(wedge, 0, 3), _loosen_sign_row(_loosen_sign_row(wedge, 0, 3), 1, 2)):
        flag, ray = has_solution_at_infinity(loose)
        assert flag and any(x != 0 for _, x in ray.values)
        assert all(c.expr.value_at(ray) <= 0 for c in loose.constraints)


# Reference: the cone tests as they were before capping rows were read, with
# a Fourier probe every time.


def _probing_solution_at_infinity(system):
    recession = recession_system(system)
    signed = {v for v in range(len(system.variables)) if recession.sign_row_for(v) is not None}
    probes = [LinearExpr.from_terms({v: -1 for v in signed})] if signed else []
    for v in range(len(system.variables)):
        if v not in signed:
            probes += [LinearExpr.from_terms({v: -1}), LinearExpr.from_terms({v: 1})]
    cid = recession.next_id()
    for expr in probes:
        probe_row = Constraint(cid, expr, Relation.LE, Fraction(-1), Provenance.main())
        verdict = feasibility(recession.with_rows(recession.constraints + (probe_row,)))
        if verdict.feasible:
            return True, verdict.witness
    return False, None


def _probing_bounded(system):
    return not _probing_solution_at_infinity(system)[0]


def _probing_reduced_to_origin(cone):
    unsigned = []
    for c in cone.constraints:
        if c.rhs != 0:
            raise NonHomogeneousError(f"constraint {c.cid} has nonzero right side {c.rhs}")
    for v in range(len(cone.variables)):
        if cone.sign_row_for(v) is None:
            unsigned.append(cone.variables[v])
    if unsigned:
        raise LincertError("variables without sign rows: " + ", ".join(unsigned))
    if not cone.variables:
        return True
    probe = Constraint(
        cone.next_id(),
        LinearExpr.from_terms({v: -1 for v in range(len(cone.variables))}),
        Relation.LE,
        Fraction(-1),
        Provenance.main(),
    )
    return not feasibility(cone.with_rows(cone.constraints + (probe,))).feasible


def _run_and_read_steps(system):
    # A trace's == leaves out its steps and terminal system, which are
    # built when first read.
    trace = run(system)
    return trace, trace.steps, trace.terminal


def _outcome(fn, system):
    try:
        return fn(system)
    except LincertError as exc:
        return type(exc), str(exc)


def _assert_matches_probing(system):
    assert _outcome(has_solution_at_infinity, system) == _outcome(_probing_solution_at_infinity, system)
    assert _outcome(is_bounded, system) == _outcome(_probing_bounded, system)
    assert _outcome(is_reduced_to_origin, system) == _outcome(_probing_reduced_to_origin, system)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_capping_rows_agree_with_the_probe(data):
    names = [f"x{i}" for i in range(data.draw(st.integers(0, 3)))]
    homogeneous = data.draw(st.booleans())
    rhs = st.just(0) if homogeneous else st.integers(-2, 2)
    coeffs = st.fixed_dictionaries({n: st.integers(-3, 3) for n in names})
    caps = st.fixed_dictionaries({n: st.integers(0, 3) for n in names})
    relation = st.sampled_from(["<=", "<", "<=", "<", "="] if data.draw(st.booleans()) else ["<=", "<"])
    row = st.tuples(coeffs | caps | st.just({}), relation, rhs)
    rows = data.draw(st.lists(row, max_size=4))
    if data.draw(st.booleans()):
        rows += [({n: 1}, "<=", data.draw(rhs)) for n in names]
    nonneg = "all" if data.draw(st.booleans()) else [n for n in names if data.draw(st.booleans())]
    system = make_system(names, mains=rows, nonneg=nonneg)
    if data.draw(st.booleans()):  # sign rows -x <= r with r != 0
        r = Fraction(data.draw(st.sampled_from([-1, 1])))
        system = system.with_rows(
            Constraint(c.cid, c.expr, c.relation, r, c.provenance) if c.provenance.kind == "sign" else c
            for c in system.constraints
        )
    _assert_matches_probing(system)


def test_capping_rows_agree_with_the_probe_on_the_baseline():
    trials = json.loads(BASELINE.read_text())["trials"]
    assert len(trials) == 500
    for trial in trials:
        primal = parse(trial["system"])
        ray = has_solution_at_infinity(primal)
        assert ray == _probing_solution_at_infinity(primal)
        assert is_bounded(primal) == (not ray[0])
        cone = primal_cone(primal).system
        assert is_reduced_to_origin(cone) == _probing_reduced_to_origin(cone)


def test_is_full_dimensional_makes_one_probe(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    assert is_full_dimensional(interval_primal())
    assert len(calls) == 1
    point_only = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    assert not is_full_dimensional(point_only)
    assert len(calls) == 2


def test_boundedness_and_the_primal_cone_are_decided_once(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    primal = uncapped_bounded_primal()
    assert is_bounded(primal) and is_bounded(primal)
    assert has_solution_at_infinity(primal) is has_solution_at_infinity(primal)
    assert len(calls) == 1
    assert primal_cone(primal) is primal_cone(primal)
    assert primal_cone(primal) == primal_cone(System(primal.variables, primal.constraints))


def test_run_and_explore_reuse_the_callers_cone_and_boundedness(monkeypatch):
    built = []
    for module, name in ((lincert.cone, "_homogenize"), (lincert.cone, "_search_rays"),
                         (lincert.pipeline, "fraction_row")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, f=original, n=name, **kw: built.append(n) or f(*args, **kw)
        )
    primal = uncapped_bounded_primal()
    assert is_bounded(primal)
    assert is_reduced_to_origin(primal_cone(primal).system) == (not feasibility(primal).feasible)
    trace = run(primal)
    assert explore(primal).outcomes[0].verdict in ("solvable", "unsolvable")
    assert sorted(built) == ["_homogenize", "_search_rays"]
    assert trace.working is build_working_system(primal)
    # The Fraction dual is built on first read, once: one row per integer row.
    assert trace.working.system is trace.working.system
    assert sorted(built) == ["_homogenize", "_search_rays"] + ["fraction_row"] * len(trace.working.rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_origin_test_from_the_primal_matches_the_probe(data):
    # Standard-shape primals, feasible or not, bounded or not, some capped.
    # The cone's origin test reads the primal's answers while the primal is
    # alive, cold or warm, and probes the cone itself once it is dropped.
    names = [f"x{i}" for i in range(data.draw(st.integers(0, 3)))]
    coeffs = st.fixed_dictionaries({n: st.integers(-3, 3) for n in names})
    rows = data.draw(st.lists(st.tuples(coeffs, st.just("<="), st.integers(-3, 3)), max_size=4))
    if data.draw(st.booleans()):
        rows += [({n: data.draw(st.integers(1, 2)) for n in names}, "<=", data.draw(st.integers(-1, 3)))]

    def primal():
        return make_system(names, mains=rows, nonneg="all")

    cold = primal()
    cone = primal_cone(cold).system
    expected = _probing_reduced_to_origin(cone)
    assert is_reduced_to_origin(cone) == expected
    assert expected == (not feasibility(cold).feasible and not _probing_solution_at_infinity(cold)[0])

    warm = primal()
    implicit_set(warm)
    is_bounded(warm)
    assert is_reduced_to_origin(primal_cone(warm).system) == expected

    dropped = primal()
    cone = primal_cone(dropped).system
    del dropped
    assert cone._memo["primal"]() is None
    assert is_reduced_to_origin(cone) == expected == _probing_reduced_to_origin(cone)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_memoized_cone_answers_match_a_fresh_copy(data):
    # Every question asked twice of one system, in the order the analyses
    # ask them, against each question asked once of its own fresh copy.
    names = [f"x{i}" for i in range(data.draw(st.integers(1, 3)))]
    coeffs = st.fixed_dictionaries({n: st.integers(-3, 3) for n in names})
    rows = data.draw(st.lists(st.tuples(coeffs, st.just("<="), st.integers(-3, 3)), max_size=4))
    if data.draw(st.booleans()):
        rows += [({n: 1}, "<=", 3) for n in names]
    primal = make_system(names, mains=rows, nonneg="all")
    questions = [
        has_solution_at_infinity,
        is_bounded,
        primal_cone,
        lambda system: is_reduced_to_origin(primal_cone(system).system),
        is_full_dimensional,
        _run_and_read_steps,
        # A small budget keeps each walk short; budget hits compare as
        # outcomes too.  Full-budget walks are covered in test_pipeline.
        lambda system: explore(system, state_budget=300),
        build_working_system,
    ]
    for question in questions + questions:
        fresh = System(primal.variables, primal.constraints, primal.objective, primal.is_cone)
        assert _outcome(question, primal) == _outcome(question, fresh)
