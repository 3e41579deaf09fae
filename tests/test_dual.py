import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lincert.dual
from fraction_reference import strong_elementary_dual_reference
from lincert.core import (
    Constraint,
    InfeasibleSystemError,
    LincertError,
    LinearExpr,
    Point,
    ShapeError,
    System,
    check_multiplier_certificate,
    make_system,
)
from lincert.dual import (
    ElementaryDual,
    elementary_dual,
    extension_status,
    multipliers_from_primal_solution,
    strong_elementary_dual,
)
from lincert.fourier import feasibility, project


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def terms(system, cid):
    return dict(system.constraint(cid).expr.terms)


def test_dual_of_worked_example():
    dual = elementary_dual(section2_primal())
    sys = dual.system
    assert sys.variables == ("l1", "l2")
    # Stored in <= orientation: the x row -l1 + l2 >= 0 becomes l1 - l2 <= 0.
    assert terms(sys, dual.row_for_var(0)) == {0: Fraction(1), 1: Fraction(-1)}
    assert terms(sys, dual.row_for_var(1)) == {0: Fraction(-1), 1: Fraction(1)}
    # Extension -2*l1 + l2 >= 0 stored as 2*l1 - l2 <= 0.
    assert terms(sys, dual.extension_id) == {0: Fraction(2), 1: Fraction(-1)}
    assert sys.constraint(dual.extension_id).provenance.kind == "extension"
    assert len(sys.sign_rows()) == 2
    assert dict(dual.lambda_origin) == {0: 0, 1: 1}


def test_dual_of_primal_without_main_rows():
    primal = make_system(["x"], nonneg="all")
    dual = elementary_dual(primal)
    assert dual.system.variables == ()
    rows = dual.system.constraints
    assert all(c.expr.is_zero and c.rhs == 0 for c in rows)
    assert len(rows) == 2  # one per primal variable plus the extension


def test_dual_of_one_by_one_primal():
    primal = make_system(["x"], mains=[({"x": 2}, "<=", 4)], nonneg="all")
    dual = elementary_dual(primal)
    assert terms(dual.system, dual.row_for_var(0)) == {0: Fraction(-2)}
    assert terms(dual.system, dual.extension_id) == {0: Fraction(4)}


def test_dual_requires_standard_shape():
    with pytest.raises(ShapeError):
        elementary_dual(make_system(["x"], mains=[({"x": 1}, "<=", 1)]))
    with pytest.raises(ShapeError):
        elementary_dual(make_system(["x"], mains=[({"x": 1}, "<", 1)], nonneg="all"))


def test_strong_dual_of_augmented_cone():
    primal = make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 1}, "<=", 2),
            ({"x": 1, "y": -2}, "<=", 0),
            ({"x": 1, "y": -1}, "<=", 0),
            ({"x": 1, "y": -3}, "<=", 0),
        ],
        nonneg="all",
    )
    c = LinearExpr.from_terms({0: 1, 1: 1})
    sd = strong_elementary_dual(primal, c, sigma=2)
    sys = sd.system
    assert sys.variables == ("l1", "l2", "l3", "l4")
    assert terms(sys, sd.row_for_var(0)) == {i: Fraction(-1) for i in range(4)}
    assert sys.constraint(sd.row_for_var(0)).rhs == -1
    assert terms(sys, sd.row_for_var(1)) == {0: Fraction(-1), 1: Fraction(2), 2: Fraction(1), 3: Fraction(3)}
    assert sys.constraint(sd.row_for_var(1)).rhs == -1
    assert terms(sys, sd.extension_id) == {0: Fraction(2)}
    assert sys.constraint(sd.extension_id).rhs == 2


def test_strong_dual_degenerates_to_elementary():
    primal = section2_primal()
    sd = strong_elementary_dual(primal, LinearExpr(), sigma=0)
    ed = elementary_dual(primal)
    assert [c.key() for c in sd.system.constraints] == [c.key() for c in ed.system.constraints]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_transposed_dual_matches_the_coefficient_formula(data):
    # p/q coefficients with zeros among them, a last variable no main row
    # mentions, an objective, and sigma None (the mixed form) or a value:
    # the dual built column by column equals, by repr, the one read
    # coefficient by coefficient.
    nvars = data.draw(st.integers(1, 4))
    names = [f"x{i}" for i in range(nvars)]
    values = st.fractions(-3, 3, max_denominator=4)
    rows = [
        ({n: data.draw(values) for n in names[:-1]}, "<=", data.draw(values))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    primal = make_system(names, mains=rows, nonneg="all", objective={n: data.draw(values) for n in names})
    for sigma in (None, data.draw(values)):
        dual = strong_elementary_dual(primal, primal.objective, sigma)
        assert repr(dual) == repr(strong_elementary_dual_reference(primal, primal.objective, sigma))


def test_strong_dual_symbolic_form_of_maximization_example():
    primal = make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 1}, "<=", 4),
            ({"x": 1, "y": -1}, "<=", 0),
            ({"x": -1, "y": 1}, "<=", 0),
            ({"x": -1}, "<=", -1),
            ({"y": -1}, "<=", -1),
        ],
        nonneg="all",
        objective={"x": 1, "y": 1},
    )
    sd = strong_elementary_dual(primal, primal.objective)
    sys = sd.system
    assert sys.variables == ("l1", "l2", "l3", "l4", "l5", "x", "y")
    # l1 + l2 - l3 - l4 >= 1 stored negated.
    assert terms(sys, sd.row_for_var(0)) == {0: Fraction(-1), 1: Fraction(-1), 2: Fraction(1), 3: Fraction(1)}
    assert sys.constraint(sd.row_for_var(0)).rhs == -1
    # Symbolic extension: 4*l1 - l4 - l5 - x - y <= 0.
    assert terms(sys, sd.extension_id) == {
        0: Fraction(4),
        3: Fraction(-1),
        4: Fraction(-1),
        5: Fraction(-1),
        6: Fraction(-1),
    }


def test_extension_status_of_solvable_primal():
    dual = elementary_dual(section2_primal())
    status = extension_status(dual)
    assert status.implicit
    lam = status.certificate
    assert lam.get(dual.extension_id) > 0
    assert check_multiplier_certificate(dual.system, lam)


def test_extension_status_of_unsolvable_primal():
    dual = elementary_dual(section2_primal(rhs1=-2, rhs2=1))
    status = extension_status(dual)
    assert not status.implicit
    # The probe pins the witness to l1 = l2 = 1, and the extension value
    # -sum(l_i r_i) there is exactly 1.
    assert status.witness == Point.of({0: 1, 1: 1})
    ext = dual.system.constraint(dual.extension_id)
    assert -ext.expr.value_at(status.witness) == 1


def test_extension_status_makes_one_probe(monkeypatch):
    calls = []

    def counted(system):
        calls.append(system)
        return feasibility(system)

    monkeypatch.setattr(lincert.dual, "feasibility", counted)
    assert extension_status(elementary_dual(section2_primal())).implicit
    assert len(calls) == 1
    assert not extension_status(elementary_dual(section2_primal(rhs1=-2, rhs2=1))).implicit
    assert len(calls) == 2


def test_extension_status_of_infeasible_strong_dual_is_an_error():
    # l >= 1 from the objective, but the extension caps l at sigma = 0.
    primal = make_system(["x"], mains=[({"x": 1}, "<=", 1)], nonneg="all")
    strong = strong_elementary_dual(primal, LinearExpr.from_terms({0: 1}), sigma=0)
    with pytest.raises(InfeasibleSystemError):
        extension_status(strong)


def test_extension_status_of_empty_primal_dual():
    dual = elementary_dual(make_system(["x"], nonneg="all"))
    status = extension_status(dual)
    assert status.implicit
    assert status.certificate.get(dual.extension_id) > 0


def test_solution_multipliers_match_worked_example():
    primal = section2_primal()
    dual = elementary_dual(primal)
    lam = multipliers_from_primal_solution(primal, dual, Point.from_names(primal, {"x": 0, "y": 1}))
    # Reference row order (x, y, s1, s2, extension) reads (0, 1, 1, 0, 1).
    assert lam.get(dual.row_for_var(0)) == 0
    assert lam.get(dual.row_for_var(1)) == 1
    assert lam.get(dual.sign_id(0)) == 1
    assert lam.get(dual.sign_id(1)) == 0
    assert lam.get(dual.extension_id) == 1
    assert check_multiplier_certificate(dual.system, lam)


def test_ray_multipliers_match_worked_example():
    primal = section2_primal()
    dual = elementary_dual(primal)
    ray = Point.from_names(primal, {"x": 1, "y": 1})
    lam = multipliers_from_primal_solution(primal, dual, ray, at_infinity=True)
    assert lam.get(dual.row_for_var(0)) == 1
    assert lam.get(dual.row_for_var(1)) == 1
    assert lam.get(dual.sign_id(0)) == 0
    assert lam.get(dual.sign_id(1)) == 0
    assert lam.get(dual.extension_id) == 0
    assert check_multiplier_certificate(dual.system, lam)


def test_multipliers_of_origin_in_degenerate_primal():
    primal = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)], nonneg="all")
    dual = elementary_dual(primal)
    lam = multipliers_from_primal_solution(primal, dual, Point.of({0: 0}))
    assert lam.get(dual.extension_id) == 1
    assert lam.get(dual.sign_id(0)) == 0
    assert lam.get(dual.sign_id(1)) == 0
    assert check_multiplier_certificate(dual.system, lam)


def test_infeasible_point_is_rejected():
    primal = section2_primal()
    dual = elementary_dual(primal)
    with pytest.raises(Exception):
        multipliers_from_primal_solution(primal, dual, Point.from_names(primal, {"x": 1, "y": 1}))


def _random_standard_primal(rng, max_vars=4, max_rows=6, bound=5):
    nvars = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        coeffs = {n: rng.randint(-bound, bound) for n in names}
        rows.append((coeffs, "<=", rng.randint(-bound, bound)))
    return make_system(names, mains=rows, nonneg="all")


def test_solutions_map_to_dual_certificates():
    rng = random.Random(11)
    done = 0
    while done < 60:
        primal = _random_standard_primal(rng)
        verdict = feasibility(primal)
        if not verdict.feasible:
            continue
        done += 1
        dual = elementary_dual(primal)
        lam = multipliers_from_primal_solution(primal, dual, verdict.witness)
        assert lam.get(dual.extension_id) == 1
        assert check_multiplier_certificate(dual.system, lam)


def test_rays_map_to_extension_free_certificates():
    from lincert.cone import has_solution_at_infinity

    rng = random.Random(12)
    done = 0
    while done < 60:
        primal = _random_standard_primal(rng)
        flag, ray = has_solution_at_infinity(primal)
        if not flag:
            continue
        done += 1
        dual = elementary_dual(primal)
        lam = multipliers_from_primal_solution(primal, dual, ray, at_infinity=True)
        assert lam.get(dual.extension_id) == 0
        assert check_multiplier_certificate(dual.system, lam)


def test_farkas_dichotomy():
    rng = random.Random(13)
    for _ in range(60):
        primal = _random_standard_primal(rng, max_vars=3, max_rows=4, bound=3)
        feasible = feasibility(primal).feasible
        status = extension_status(elementary_dual(primal))
        assert feasible == status.implicit


def _objective_maximum(primal, objective):
    """Exact max of the objective via projection onto a fresh value variable.

    Returns None when the objective is unbounded above.  Independent of the
    duality machinery: only elimination and direct bound scans are used.
    """
    obj_by_name = {primal.variables[i]: objective.coeff(i) for i in range(len(primal.variables))}
    rows = [
        ({**obj_by_name, "t": -1}, "<=", 0),
        ({**{n: -v for n, v in obj_by_name.items()}, "t": 1}, "<=", 0),
    ]
    for c in primal.constraints:
        coeffs = {primal.variables[v]: x for v, x in c.expr.terms}
        rows.append((coeffs, c.relation.value, c.rhs))
    names = list(primal.variables) + ["t"]
    t = len(names) - 1
    shadow = project(make_system(names, mains=rows), {t})
    best = None
    for c in shadow.constraints:
        a = c.expr.coeff(t)
        if a > 0:
            bound = c.rhs / a
            best = bound if best is None or bound < best else best
    return best


def test_strong_dual_extension_is_tight_at_the_optimum():
    rng = random.Random(14)
    done = 0
    while done < 25:
        primal = _random_standard_primal(rng, max_vars=3, max_rows=4, bound=3)
        objective = LinearExpr.from_terms({i: rng.randint(0, 3) for i in range(len(primal.variables))})
        if not feasibility(primal).feasible:
            continue
        sigma = _objective_maximum(primal, objective)
        if sigma is None:
            continue  # unbounded objective
        done += 1
        sd = strong_elementary_dual(primal, objective)
        mixed = combined_with_primal(primal, sd)
        verdict = feasibility(mixed)
        # Strong duality: a bounded, attained maximum makes the mixed system
        # solvable, and every mixed point holds the extension with equality
        # at an optimal primal point.
        assert verdict.feasible
        ext = mixed.constraint(sd.extension_id)
        assert ext.expr.value_at(verdict.witness) == ext.rhs
        assert objective.value_at(_shift_point(verdict.witness, len(sd.lambda_origin))) == sigma


def combined_with_primal(primal: System, strong: ElementaryDual) -> System:
    """One system over (lambda..., x...) holding the primal rows and the
    symbolic strong dual rows together."""
    if strong.sigma is not None:
        raise LincertError("only the symbolic strong dual can be combined with its primal")
    nlam = len(strong.lambda_origin)
    rows = list(strong.system.constraints)
    cid = strong.system.next_id()
    for c in primal.constraints:
        expr = LinearExpr.from_terms({nlam + v: coeff for v, coeff in c.expr.terms})
        rows.append(Constraint(cid, expr, c.relation, c.rhs, c.provenance))
        cid += 1
    return System(strong.system.variables, tuple(rows))


def _shift_point(point, offset):
    """Read the x part of a (lambda..., x...) mixed point back onto x indices."""
    return Point.of({v - offset: x for v, x in point.values if v >= offset})
