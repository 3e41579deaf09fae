from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import format_constraint_reference, print_system_reference
from lincert.core import Constraint, LinearExpr, Provenance, Relation, System, make_system, sign_row
from lincert.sysfile import ParseError, format_constraint, parse, parse_rational, print_system

SECTION2 = """\
# feasibility example
vars: x y
-x + y <= 2
x - y <= -1
nonneg: all
"""


def test_parse_worked_example():
    sys = parse(SECTION2)
    assert sys.variables == ("x", "y")
    assert len(sys.constraints) == 4
    assert dict(sys.constraint(0).expr.terms) == {0: Fraction(-1), 1: Fraction(1)}
    assert sys.constraint(0).rhs == 2
    assert sys.constraint(1).rhs == -1
    assert [c.provenance.kind for c in sys.constraints] == ["main", "main", "sign", "sign"]
    assert not sys.is_cone and sys.objective is None


def test_parse_header_only():
    sys = parse("vars: x\n")
    assert sys.variables == ("x",)
    assert sys.constraints == ()


def test_parse_ge_rows_are_negated():
    sys = parse("vars: x y\n1/2*x - 3*y >= 0\n")
    row = sys.constraint(0)
    assert dict(row.expr.terms) == {0: Fraction(-1, 2), 1: Fraction(3)}
    assert row.relation is Relation.LE and row.rhs == 0


def test_parse_strict_and_equality_rows():
    sys = parse("vars: x\nx < 1\nx = 2\nx > -1\n")
    assert sys.constraint(0).relation is Relation.LT
    assert sys.constraint(1).relation is Relation.EQ
    strict = sys.constraint(2)
    assert strict.relation is Relation.LT
    assert dict(strict.expr.terms) == {0: Fraction(-1)} and strict.rhs == 1


def test_parse_cone_flag_objective_and_partial_nonneg():
    sys = parse("vars: x y\ncone\nmaximize: x + 2*y\nx - y <= 0\nnonneg: x\n")
    assert sys.is_cone
    assert dict(sys.objective.terms) == {0: Fraction(1), 1: Fraction(2)}
    assert len(sys.sign_rows()) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse("x <= 1\n")
    with pytest.raises(ParseError, match="line 2.*unknown"):
        parse("vars: x\nq <= 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("vars: x\nx <= 1\nx <=\n")
    with pytest.raises(ParseError, match="zero denominator"):
        parse("vars: x\n1/0*x <= 1\n")
    with pytest.raises(ParseError, match="zero denominator"):
        parse("vars: x\nx <= 1/0\n")
    with pytest.raises(ParseError, match="missing"):
        parse("vars: x y\nx y <= 1\n")


@pytest.mark.parametrize(
    "token, value",
    [("007", 7), ("0", 0), ("4/6", Fraction(2, 3)), ("0/5", 0), ("010/004", Fraction(5, 2)), ("12", 12)],
)
def test_numbers_read_as_fraction_reads_them(token, value):
    assert Fraction(token) == value
    system = parse(f"vars: x y\n{token}*x - {token}*y <= -{token}\n")
    row = system.constraints[0]
    assert row.expr.terms == (((0, value), (1, -value)) if value else ())
    assert row.rhs == -value
    assert parse_rational(f" - {token} ") == -value


@pytest.mark.parametrize("token", ["3/0", "0/0", "3/000"])
def test_zero_denominators_name_the_token(token):
    message = f"line 2: zero denominator in {token!r}"
    for line in (f"{token}*x <= 1", f"x <= {token}", f"x >= -{token}"):
        with pytest.raises(ParseError) as raised:
            parse(f"vars: x\n{line}\n")
        assert str(raised.value) == message
    with pytest.raises(ParseError) as raised:
        parse_rational(token, 2)
    assert str(raised.value) == message


def test_print_is_canonical_and_stable():
    text = print_system(parse(SECTION2))
    assert text == "vars: x y\n-x + y <= 2\nx - y <= -1\nnonneg: all\n"
    assert print_system(parse(text)) == text


def test_print_ge_orientation_round_trips():
    sys = parse(SECTION2)
    ge_text = print_system(sys, orientation="ge")
    assert "x - y >= -2" in ge_text
    again = parse(ge_text)
    assert [c.key() for c in again.constraints] == [c.key() for c in sys.constraints]


def test_print_zero_expression():
    sys = make_system(["x"], mains=[({"x": 0}, "<=", -1)])
    assert "0*x <= -1" in print_system(sys)
    assert parse(print_system(sys)).constraint(0).expr.is_zero


def test_print_comments_attach_to_rows():
    sys = parse(SECTION2)
    text = print_system(sys, comments={1: "second row"})
    assert "# second row\nx - y <= -1" in text
    assert parse(text).constraints == sys.constraints


def test_print_keeps_sign_rows_other_than_nonneg():
    # Only -x <= 0 goes to the nonneg: line; the sign rows -x <= 3, -2*y <= 0
    # and -x < 0 print as rows, in their place, so the text parses back to
    # the same rows.
    for sign_row in ({"x": -1}, "<=", 3), ({"y": -2}, "<=", 0), ({"x": -1}, "<", 0):
        base = make_system(["x", "y"], mains=[({"x": 1, "y": 1}, "<=", 4), sign_row], nonneg=["y"])
        t = base.with_rows(
            Constraint(c.cid, c.expr, c.relation, c.rhs, Provenance.sign() if c.cid == 1 else c.provenance)
            for c in base.constraints
        )
        text = print_system(t)
        assert text.endswith("nonneg: y\n")
        assert [c.key() for c in parse(text).constraints] == [c.key() for c in t.constraints]


names = st.lists(
    st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=3, unique=True
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_print_round_trip(data):
    vs = data.draw(names)
    rows = []
    for _ in range(data.draw(st.integers(0, 4))):
        coeffs = {
            v: Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))
            for v in vs
        }
        rel = data.draw(st.sampled_from(["<=", "<", "="]))
        rows.append((coeffs, rel, Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))))
    nonneg = data.draw(st.sampled_from(["all", "none", "some"]))
    kw = {"nonneg": vs if nonneg == "all" else (vs[:1] if nonneg == "some" else ())}
    sys = make_system(vs, mains=rows, is_cone=data.draw(st.booleans()), **kw)
    text = print_system(sys)
    back = parse(text)
    assert back.variables == sys.variables
    assert back.is_cone == sys.is_cone
    assert [c.key() for c in back.constraints] == [c.key() for c in sys.constraints]
    assert [c.provenance.kind for c in back.constraints] == [
        c.provenance.kind for c in sys.constraints
    ]
    assert print_system(back) == text


rationals = st.builds(Fraction, st.integers(-80, 80), st.integers(1, 6))


def _printed_row(data, cid, nvars):
    """One row of the kinds the printer tells apart: a plain sign row
    -x <= 0, a sign-like row (one term, sign or main provenance, e.g.
    -x <= 3, -2*x <= 0, -x < 0, x <= 0), a zero row, or a general row."""
    kind = data.draw(st.sampled_from(["sign", "sign-like", "zero", "general"]))
    var = data.draw(st.integers(0, nvars - 1))
    if kind == "sign":
        return sign_row(cid, var)
    if kind == "sign-like":
        expr = LinearExpr(((var, data.draw(st.sampled_from([Fraction(-1), Fraction(-2), Fraction(-1, 2), Fraction(1)]))),))
        rhs = data.draw(st.sampled_from([Fraction(0), Fraction(3), Fraction(-1, 3)]))
        provenance = data.draw(st.sampled_from([Provenance.sign(), Provenance.main()]))
        return Constraint(cid, expr, data.draw(st.sampled_from([Relation.LE, Relation.LT])), rhs, provenance)
    expr = LinearExpr() if kind == "zero" else LinearExpr.from_terms(
        (v, data.draw(rationals)) for v in range(nvars)
    )
    relation = data.draw(st.sampled_from(list(Relation)))
    return Constraint(cid, expr, relation, data.draw(rationals), Provenance.main())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_print_matches_the_fraction_reference(data):
    # The printer reads numerators and denominators; the reference does
    # abs, negation and str on Fractions, as the printer once did.
    vs = tuple(data.draw(names))
    rows = [_printed_row(data, cid, len(vs)) for cid in range(data.draw(st.integers(0, 6)))]
    objective = data.draw(st.one_of(
        st.none(), st.builds(lambda cs: LinearExpr.from_terms(enumerate(cs)), st.lists(rationals, max_size=len(vs)))
    ))
    system = System(vs, tuple(rows), objective, data.draw(st.booleans()))
    comments = {cid: f"row {cid}" for cid in data.draw(st.sets(st.integers(0, len(rows))))}
    for orientation in ("le", "ge"):
        for c in rows:
            assert format_constraint(c, system, orientation) == format_constraint_reference(c, system, orientation)
        assert print_system(system, orientation, comments) == print_system_reference(system, orientation, comments)
