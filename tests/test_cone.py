import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lincert.cone
from lincert.core import Constraint, LincertError, LinearExpr, Provenance, Relation, evaluate, make_system
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
from lincert.implicit import nonzero_multiplier_exists


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def interval_primal():
    return make_system(["x"], mains=[({"x": 1}, "<=", 1)], nonneg="all")


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
    pinched = make_system(
        ["x", "y"],
        mains=[({"x": 1, "y": 1}, "<=", 0), ({"x": -1, "y": -1}, "<=", 0)],
        nonneg="all",
    )
    assert is_reduced_to_origin(pinched)

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

    def counted(system, order=None):
        calls.append(order)
        return feasibility(system, order)

    monkeypatch.setattr(lincert.cone, "feasibility", counted)
    return calls


def test_is_bounded_on_signed_system_makes_one_probe(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    assert is_bounded(interval_primal())
    assert len(calls) == 1
    assert not is_bounded(section2_primal())
    assert len(calls) == 2


def test_is_full_dimensional_makes_one_probe(monkeypatch):
    calls = _count_feasibility_calls(monkeypatch)
    assert is_full_dimensional(interval_primal())
    assert len(calls) == 1
    point_only = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    assert not is_full_dimensional(point_only)
    assert len(calls) == 2
