import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fraction_reference import (
    combine_reference,
    interval_of_reference,
    is_equality_certificate_reference,
    is_infeasibility_certificate_reference,
)

from lincert import cone, pipeline
from lincert.core import (
    Constraint,
    LincertError,
    LinearExpr,
    MultiplierVector,
    NegativeMultiplierError,
    NonHomogeneousError,
    Point,
    Relation,
    RelationError,
    RowClass,
    ShapeError,
    System,
    UnknownConstraintError,
    check_multiplier_certificate,
    combine,
    evaluate,
    expand_equalities,
    interval_of,
    is_zero_row,
    make_system,
    rat,
    validate_standard_shape,
)
from lincert.fourier import feasibility, is_infeasibility_certificate

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def section2_primal(rhs1=2, rhs2=-1):
    return make_system(
        ["x", "y"],
        mains=[({"x": -1, "y": 1}, "<=", rhs1), ({"x": 1, "y": -1}, "<=", rhs2)],
        nonneg="all",
    )


def test_non_homogeneous_error_is_shared():
    assert pipeline.NonHomogeneousError is cone.NonHomogeneousError is NonHomogeneousError


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-7) == Fraction(-7)


def test_rat_returns_fractions_and_refuses_floats_with_or_without_den():
    x = Fraction(-3, 4)
    assert rat(x) == x and type(rat(x)) is Fraction
    assert type(rat(5)) is Fraction and rat(5) == 5
    # rat takes one value; a separate denominator is refused, float or not.
    for args in [(0.5,), (1, 2), (1, 2.0), (0.5, 2), (x, 2.0), (2.0, x)]:
        with pytest.raises(TypeError):
            rat(*args)


def test_rat_zero_denominator_is_an_error():
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


@given(a=rationals, b=rationals)
def test_rational_addition_round_trips(a, b):
    assert (a + b) - b == a


@given(a=rationals, b=rationals.filter(lambda x: x != 0))
def test_rational_multiplication_round_trips(a, b):
    assert (a * b) / b == a


@given(a=rationals)
def test_rational_canonical_form(a):
    from math import gcd

    assert a.denominator > 0
    assert gcd(abs(a.numerator), a.denominator) == 1


def test_linear_expr_drops_zero_coefficients():
    e = LinearExpr.from_terms({0: 1, 1: 0, 2: -3})
    assert e.terms == ((0, Fraction(1)), (2, Fraction(-3)))
    assert e.coeff(1) == 0
    assert (e - e).is_zero


def test_combine_canceling_pair():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    row = combine(sys, MultiplierVector.of({0: 1, 1: 1}))
    assert row.expr.is_zero
    assert row.rhs == 0
    assert row.relation is Relation.LE


def test_combine_direct_sum():
    # Independent oracle: sum the coefficient dicts by hand.
    sys = make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 1}, "<=", 0),
            ({"x": 2, "y": -1}, "<=", 0),
            ({"x": -1, "y": 2}, "<=", 0),
        ],
    )
    row = combine(sys, MultiplierVector.of({0: 1, 1: 1, 2: 1}))
    # x: 1+2-1 = 2, y: 1-1+2 = 2
    assert row.expr == LinearExpr.from_terms({0: 2, 1: 2})
    assert row.rhs == 0
    assert not row.expr.is_zero


def test_combine_strictness_propagates():
    sys = make_system(["x"], mains=[({"x": 1}, "<", 1), ({"x": -1}, "<=", 0)])
    assert combine(sys, MultiplierVector.of({0: 1, 1: 1})).relation is Relation.LT
    assert combine(sys, MultiplierVector.of({1: 1})).relation is Relation.LE
    # A strict row listed at weight 0 adds nothing: the feasible x <= 0,
    # -x <= 0, y < 5 sums to 0 <= 0, which contradicts nothing.
    feasible = make_system(["x", "y"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0), ({"y": 1}, "<", 5)])
    assert combine(feasible, MultiplierVector(((0, 1), (1, 1), (2, 0)))).relation is Relation.LE


def test_combine_unknown_id_and_negative_weight():
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 0)])
    with pytest.raises(UnknownConstraintError):
        combine(sys, MultiplierVector.of({5: 1}))
    with pytest.raises(NegativeMultiplierError):
        MultiplierVector.of({0: -1})


def test_combine_rejects_equality_rows():
    sys = make_system(["x"], mains=[({"x": 1}, "=", 0)])
    with pytest.raises(RelationError):
        combine(sys, MultiplierVector.of({0: 1}))


def _outcome(fn, *args):
    """repr of the result or of the error, so Fraction and int entries and
    error messages must match too."""
    try:
        return repr(fn(*args))
    except LincertError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def weighted_rows(draw):
    """A system of <=, < and = rows with Fraction entries, sometimes a pair
    that cancels, and a multiplier vector built directly, so it may hold
    zero or negative weights and ids no row has."""
    names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    values = st.fractions(-3, 3, max_denominator=4)
    coeffs = st.fixed_dictionaries({n: values for n in names})
    relations = st.sampled_from(("<=", "<", "="))
    rows = [(draw(coeffs), draw(relations), draw(values)) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        a, b = draw(coeffs), draw(values)
        rows += [(a, draw(st.sampled_from(("<=", "<"))), b), ({n: -c for n, c in a.items()}, "<=", -b)]
    system = make_system(names, mains=draw(st.permutations(rows)))
    ids = st.integers(0, len(rows) + 1)
    weights = st.fractions(-1, 3, max_denominator=3) | st.integers(0, 3)
    entries = draw(st.lists(st.tuples(ids, weights), unique_by=lambda e: e[0], max_size=len(rows) + 2))
    return system, MultiplierVector(tuple(sorted(entries)))


@given(case=weighted_rows())
def test_combine_matches_the_fraction_reference(case):
    system, lam = case
    assert _outcome(combine, system, lam) == _outcome(combine_reference, system, lam)
    if lam.entries and all(w >= 0 for _, w in lam.entries):
        positive = MultiplierVector.of((cid, 1) for cid, _ in lam.entries)
        assert _outcome(combine, system, positive) == _outcome(combine_reference, system, positive)


@given(case=weighted_rows())
def test_certificate_checks_match_the_fraction_reference(case):
    # Both predicates, on the drawn weights and on weight 1 for every pair
    # of rows (which meets the cancelling pair when one is drawn), agree
    # with the Fraction combination, errors by type and message included.
    system, lam = case
    ids = system.ids()
    vectors = [lam] + [MultiplierVector.of({i: 1, j: 1}) for i in ids for j in ids if i < j]
    for vector in vectors:
        for fn, reference in (
            (check_multiplier_certificate, is_equality_certificate_reference),
            (is_infeasibility_certificate, is_infeasibility_certificate_reference),
        ):
            assert _outcome(fn, system, vector) == _outcome(reference, system, vector)


@pytest.mark.parametrize(
    "rows, weights, equality, infeasible",
    [
        # [0] <= 0, [0] < 0 and [0] <= -1, each from a pair with denominators
        ([({"x": Fraction(1, 2)}, "<=", Fraction(1, 3)), ({"x": -3}, "<=", -2)], {0: 6, 1: 1}, True, False),
        ([({"x": Fraction(1, 2)}, "<", Fraction(1, 3)), ({"x": -3}, "<=", -2)], {0: 6, 1: 1}, True, True),
        ([({"x": Fraction(2, 3)}, "<=", -1), ({"x": -1}, "<=", 0)], {0: Fraction(3, 2), 1: 1}, False, True),
        # a strict row listed with weight zero adds nothing: [0] <= 0, no contradiction
        ([({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0), ({"x": 1}, "<", 5)], {0: 1, 1: 1, 2: 0}, True, False),
    ],
)
def test_certificate_checks_on_rows_with_denominators(rows, weights, equality, infeasible):
    system = make_system(["x"], mains=rows)
    lam = MultiplierVector(tuple(sorted(weights.items())))
    assert check_multiplier_certificate(system, lam) is equality
    assert is_infeasibility_certificate(system, lam) is infeasible
    assert is_equality_certificate_reference(system, lam) is equality
    assert is_infeasibility_certificate_reference(system, lam) is infeasible


def test_the_memo_is_no_part_of_the_system_value():
    s = section2_primal()
    fresh = System(s.variables, s.constraints, s.objective, s.is_cone)
    assert feasibility(s) is feasibility(s)
    assert set(s._memo) == {"feasibility"} and fresh._memo == {}
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert "_memo" not in repr(s)
    assert s.with_rows(s.constraints)._memo == {}
    assert dataclasses.replace(s)._memo == {}
    assert expand_equalities(s)._memo == {}


def test_every_verdict_is_served_from_the_memo():
    # Fourier has one elimination order, so a system has one verdict, kept
    # under one key: asking again, feasible or not, repeats no elimination.
    for s in (section2_primal(rhs2=1), section2_primal(rhs1=-2, rhs2=1)):
        first = feasibility(s)
        assert feasibility(s) is first
        assert set(s._memo) == {"feasibility"}


def test_a_call_that_raises_stores_nothing():
    pinned = make_system(["x"], mains=[({"x": 1}, "=", 0)], nonneg="all")
    unsigned = make_system(["x"], mains=[({"x": 1}, "<=", 1)])
    for fn, system, error in [
        (feasibility, pinned, RelationError),
        (cone.is_bounded, pinned, RelationError),
        (cone.primal_cone, unsigned, ShapeError),
    ]:
        with pytest.raises(error):
            fn(system)
        assert system._memo == {}


def test_evaluate_examples():
    sys = section2_primal()
    p = Point.from_names(sys, {"x": 0, "y": 1})
    assert evaluate(sys.constraint(0), p)  # -x + y <= 2 at (0, 1)
    single = make_system(["x"], mains=[({"x": 1}, "<=", 0)])
    assert evaluate(single.constraint(0), Point.from_names(single, {"x": 0}))
    # x - y <= -1 fails at (1, 1): 0 <= -1 is false
    assert not evaluate(sys.constraint(1), Point.from_names(sys, {"x": 1, "y": 1}))


def test_evaluate_missing_variable_errors():
    sys = section2_primal()
    with pytest.raises(Exception):
        evaluate(sys.constraint(0), Point.of({0: 1}))


def test_is_zero_row_classification():
    def row(rel, rhs):
        return Constraint(0, LinearExpr(), Relation(rel), rat(rhs))

    assert is_zero_row(row("<=", -1)) is RowClass.CONTRADICTION
    assert is_zero_row(row("<=", 0)) is RowClass.TAUTOLOGY
    assert is_zero_row(row("<", 0)) is RowClass.CONTRADICTION
    assert is_zero_row(row("<", 1)) is RowClass.TAUTOLOGY
    informative = Constraint(0, LinearExpr.from_terms({0: 1}), Relation.LE, rat(-5))
    assert is_zero_row(informative) is RowClass.INFORMATIVE


def test_certificate_trivial_all_zero():
    sys = section2_primal()
    assert check_multiplier_certificate(sys, MultiplierVector.of({}))
    assert MultiplierVector.of({}).is_zero


def test_certificate_fails_when_extension_would_be_positive():
    # With right-hand sides (-2, 1) the weights (1, 1) sum to [0] <= -1,
    # which is an infeasibility certificate, not an implicit-equality one.
    sys = section2_primal(rhs1=-2, rhs2=1)
    lam = MultiplierVector.of({0: 1, 1: 1})
    combined = combine(sys, lam)
    assert combined.expr.is_zero and combined.rhs == -1
    assert not check_multiplier_certificate(sys, lam)


@given(alpha=st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100))
def test_certificate_scaling_freedom(alpha):
    sys = make_system(["x"], mains=[({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    lam = MultiplierVector.of({0: 1, 1: 1})
    assert check_multiplier_certificate(sys, lam)
    assert check_multiplier_certificate(sys, lam.scale(alpha))


@given(
    w1=st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
    w2=st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
)
def test_combine_is_linear_in_the_multipliers(w1, w2):
    sys = make_system(
        ["x", "y"],
        mains=[
            ({"x": 1, "y": 2}, "<=", 3),
            ({"x": -1, "y": 1}, "<=", -1),
            ({"x": 2, "y": -5}, "<=", 0),
        ],
    )
    l1 = MultiplierVector.of(dict(enumerate(w1)))
    l2 = MultiplierVector.of(dict(enumerate(w2)))
    both = combine(sys, l1 + l2)
    first, second = combine(sys, l1), combine(sys, l2)
    assert both.expr == first.expr + second.expr
    assert both.rhs == first.rhs + second.rhs


def test_multiplier_vector_is_sparse_and_semantic():
    assert MultiplierVector.of({3: 0, 7: 2}).entries == ((7, Fraction(2)),)
    assert MultiplierVector.of({3: 0, 7: 2}) == MultiplierVector.of({7: 2})
    assert MultiplierVector.of({7: 2}).get(3) == 0


def test_expand_equalities():
    sys = make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "=", 2), ({"x": 1}, "<=", 5)])
    out = expand_equalities(sys)
    rels = [(c.expr.terms, c.relation, c.rhs) for c in out.constraints]
    assert (((0, Fraction(1)), (1, Fraction(1))), Relation.LE, Fraction(2)) in rels
    assert (((0, Fraction(-1)), (1, Fraction(-1))), Relation.LE, Fraction(-2)) in rels
    assert len(out.constraints) == 3
    parents = {c.provenance.parents for c in out.constraints if c.provenance.kind == "derived"}
    assert parents == {(0,)}


def test_standard_shape_validation_reports_missing_signs():
    sys = make_system(["x", "y"], mains=[({"x": 1}, "<=", 1)], nonneg=["x"])
    with pytest.raises(ShapeError, match="y"):
        validate_standard_shape(sys)
    ok = section2_primal()
    mains, signs = validate_standard_shape(ok)
    assert len(mains) == 2 and len(signs) == 2


def test_constraint_ids_follow_insertion_order():
    sys = section2_primal()
    assert sys.ids() == (0, 1, 2, 3)
    assert sys.next_id() == 4


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([(2, 2, False), (-2, -2, False), (-3, -3, False), (-1, 0, False)], "[1, 1]"),
        ([(1, 1, False), (1, 1, True)], "(-inf, 1)"),
        ([(1, 1, True), (1, 1, False)], "(-inf, 1)"),
        ([(-1, 0, True), (-2, 0, False)], "(0, +inf)"),
        ([(1, 0, True), (-1, 0, False)], "empty"),
        ([(-1, -1, False), (1, 0, False)], "empty"),
        ([(0, -1, False), (1, 5, False)], "empty"),
        ([(0, 0, True)], "empty"),
        ([(0, 0, False), (Fraction(1, 2), Fraction(1, 3), False)], "(-inf, 2/3]"),
        ([], "(-inf, +inf)"),
    ],
)
def test_interval_of_reads_the_tightest_bounds(rows, expected):
    # A strict row closes a tied bound open, in either order; a var-free
    # row that fails empties the interval.
    assert interval_of(rows).describe() == expected


bound_numbers = st.sampled_from([0, 1, 2, 3, -1, -2, -3]) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def fiber_rows(draw):
    """(a, rhs, strict) rows of ints or Fractions, a = 0 among them, each
    sometimes repeated scaled by k > 0 with its strictness flipped, so
    that bounds tie; one-sided and empty lists too."""
    signs = draw(st.sampled_from([(-1, 0, 1), (0, 1), (-1, 0), (-1, 1)]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.sampled_from(signs)) * abs(draw(bound_numbers))
        rows.append((a, draw(bound_numbers), draw(st.booleans())))
    for a, rhs, strict in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else ():
        k = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
        rows.append((a * k, rhs * k, not strict))
    return draw(st.permutations(rows))


@given(rows=fiber_rows())
def test_interval_of_matches_the_fraction_reference(rows):
    # The cross-multiplied comparison reads the same interval, types
    # included, as one Fraction per bound.
    assert repr(interval_of(rows)) == repr(interval_of_reference(rows))
