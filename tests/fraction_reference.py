"""Independent Fraction references for Gaussian substitution, the Fourier
pair step, Fourier back-substitution and the tight-row test, the Farkas
replay, the terminal interval and the multiplier combination, and the
helpers the tests share.

`lincert.gauss` substitutes and `lincert.fourier` combines pairs,
back-substitutes and tests rows for tightness on integer rows; the tests
compare them, and the pipeline built on them, with the textbook formulas
on Fraction rows written out here, so the kernels are never checked
against themselves.
"""

from fractions import Fraction
from math import gcd, lcm

from lincert.core import (
    Constraint,
    InfeasibleSystemError,
    Interval,
    LincertError,
    LinearExpr,
    MultiplierVector,
    NegativeMultiplierError,
    Point,
    Provenance,
    Relation,
    RelationError,
    RowClass,
    UnknownConstraintError,
    ZERO,
    interval_of,
    is_zero_row,
)
from lincert.fourier import EliminationStep, ProducedRow, _pick_midpoint, project


def combine_reference(system, lam):
    """sum(w_i * row_i) as `core.combine` once made it: one LinearExpr sum
    per weighted row, each row found by `System.constraint`."""
    expr = LinearExpr()
    rhs = ZERO
    strict = False
    parents = []
    for cid, w in lam.entries:
        if w < 0:
            raise NegativeMultiplierError(f"multiplier for constraint {cid} is negative")
        row = system.constraint(cid)
        if row.relation is Relation.EQ:
            raise RelationError(f"constraint {cid} is an equality; expand it to inequality form first")
        expr = expr + row.expr.scale(w)
        rhs += row.rhs * w
        if row.relation is Relation.LT:
            strict = True
        parents.append(cid)
    rel = Relation.LT if strict else Relation.LE
    return Constraint(-1, expr, rel, rhs, Provenance.derived(sorted(parents)))


def substitute_fraction(system, var, pivot_id):
    """Each other row a*x0 + L <= r with a != 0 becomes
    L/|a| - sign(a)*L0/a0 <= r/|a| - sign(a)*r0/a0; rows without x0 are
    kept as they are and the pivot row is dropped."""
    pivot = system.constraint(pivot_id)
    a0 = pivot.expr.coeff(var)
    l0 = pivot.expr.drop(var)
    rows = []
    for c in system.constraints:
        if c.cid == pivot_id:
            continue
        a = c.expr.coeff(var)
        if a == 0:
            rows.append(c)
            continue
        s = 1 if a > 0 else -1
        expr = c.expr.drop(var).scale(1 / abs(a)) - l0.scale(Fraction(s) / a0)
        rhs = c.rhs / abs(a) - pivot.rhs * s / a0
        rows.append(Constraint(c.cid, expr, c.relation, rhs, Provenance.derived((c.cid, pivot_id))))
    return system.with_rows(rows)


def _coprime(expr, rhs):
    """(expr, rhs, factor): the row divided by factor, a coprime integer
    vector with the same signs; an all-zero row keeps factor 1."""
    entries = [c for _, c in expr.terms] + [rhs]
    if not any(entries):
        return expr, rhs, Fraction(1)
    factor = Fraction(gcd(*(c.numerator for c in entries)), lcm(*(c.denominator for c in entries)))
    return expr.scale(1 / factor), rhs / factor, factor


def normalized_key(constraint):
    """Structural row identity up to positive scaling: the row as a coprime
    integer vector, sign preserved, in Fractions."""
    expr, rhs, _ = _coprime(constraint.expr, constraint.rhs)
    return (expr.terms, constraint.relation, rhs)


def eliminate_var_fraction(system, var):
    """One Fourier step, as a lone `eliminate_var` call makes it.

    Rows without x pass through.  Each pair pos, neg with x coefficients
    a > 0 and -b < 0 gives pos/a + neg/b, strict if either row is.  A
    var-free tautology is dropped, and recorded with weights (1/a, 1/b) in
    zero_rows when it reads [0] <= 0.  Any other row is divided by its
    factor to a coprime integer vector, with weights (1/a, 1/b)/factor; a
    row equal entry for entry to a kept row merges into it.  Returns the new
    System and its EliminationStep."""
    rows = [c for c in system.constraints if c.expr.coeff(var) == 0]
    by_key = {c.key(): c.cid for c in rows}
    produced, zero_rows, merged = {}, [], []
    next_id = system.next_id()
    for pos in system.constraints:
        a = pos.expr.coeff(var)
        if a <= 0:
            continue
        for neg in system.constraints:
            b = -neg.expr.coeff(var)
            if b <= 0:
                continue
            expr = pos.expr.scale(1 / a) + neg.expr.scale(1 / b)
            rhs = pos.rhs / a + neg.rhs / b
            rel = Relation.LT if Relation.LT in (pos.relation, neg.relation) else Relation.LE
            if expr.is_zero and rel.holds(0, rhs):
                if rhs == 0:
                    zero_rows.append(((pos.cid, 1 / a), (neg.cid, 1 / b)))
                continue
            expr, rhs, factor = _coprime(expr, rhs)
            derivation = ((pos.cid, 1 / a / factor), (neg.cid, 1 / b / factor))
            key = (expr.terms, rel, rhs)
            if key in by_key:
                cid = by_key[key]
                if cid in produced:
                    produced[cid] += (derivation,)
                else:
                    merged.append((cid, derivation))
                continue
            rows.append(Constraint(next_id, expr, rel, rhs, Provenance.derived((pos.cid, neg.cid))))
            produced[next_id] = (derivation,)
            by_key[key] = next_id
            next_id += 1
    step = EliminationStep(
        var, tuple(ProducedRow(cid, d) for cid, d in produced.items()), tuple(zero_rows), tuple(merged)
    )
    return system.with_rows(rows), step


def back_substitute_fraction(chain, order):
    """The witness of a feasible chain in Fraction arithmetic: variable
    order[i], last first, takes the midpoint of the interval its rows in
    chain[i] leave it, each row's other terms evaluated at the values
    already fixed."""
    known = {}
    for i in range(len(order) - 1, -1, -1):
        var = order[i]
        fiber = []
        for c in chain[i].constraints:
            a = c.expr.coeff(var)
            if a:
                rest = sum((x * known[v] for v, x in c.expr.terms if v != var), ZERO)
                fiber.append((a, c.rhs - rest, c.relation is Relation.LT))
        known[var] = _pick_midpoint(interval_of(fiber))
    return Point.of(known)


def tight_rows_fraction(system, point):
    """The <= rows whose left side equals the right side at the point."""
    return frozenset(
        c.cid for c in system.constraints if c.relation is Relation.LE and c.expr.value_at(point) == c.rhs
    )


def farkas_reference(trace, cid):
    """Replay row cid to input-row multipliers by ids in descending order,
    following each row's first derivation: ids grow along derivations, so a
    row's weight is complete before its id comes up."""
    derivations = {}
    for step in trace.steps:
        for row in step.produced:
            derivations[row.cid] = row.derivations[0]
    if cid not in trace.input_ids and cid not in derivations:
        raise UnknownConstraintError(f"constraint {cid} is not recorded in the trace")
    weights = {cid: Fraction(1)}
    for current in sorted(derivations, reverse=True):
        w = weights.pop(current, None)
        if w is not None:
            for parent, coeff in derivations[current]:
                weights[parent] = weights.get(parent, ZERO) + w * coeff
    assert set(weights) <= trace.input_ids
    return MultiplierVector.of(weights)


def terminal_interval(system, var):
    """Exact feasible interval of a one-variable system, bound by bound."""
    lo = hi = None
    lo_open = hi_open = empty = False
    for c in system.constraints:
        extra = [v for v, _ in c.expr.terms if v != var]
        if extra:
            names = ", ".join(system.variables[v] for v in extra)
            raise LincertError(f"terminal system still mentions {names}")
        if c.relation is Relation.EQ:
            raise LincertError(f"terminal system contains an equality row {c.cid}")
        a, strict = c.expr.coeff(var), c.relation is Relation.LT
        if a == 0:
            empty = empty or not c.relation.holds(0, c.rhs)
        elif a > 0 and (hi is None or c.rhs / a < hi or (c.rhs / a == hi and strict)):
            hi, hi_open = c.rhs / a, strict
        elif a < 0 and (lo is None or c.rhs / a > lo or (c.rhs / a == lo and strict)):
            lo, lo_open = c.rhs / a, strict
    if empty or (lo is not None and hi is not None and (lo > hi or (lo == hi and (lo_open or hi_open)))):
        return Interval(empty=True)
    return Interval(False, lo, lo_open, hi, hi_open)


def sample_point(system, rng):
    """A random feasible point by perturbed back-substitution: variable i,
    last first, takes a random point of its fiber in the projection onto
    variables i..n-1, the later ones fixed.  Raises InfeasibleSystemError
    on an infeasible system."""
    n = len(system.variables)
    if any(is_zero_row(c) is RowClass.CONTRADICTION for c in project(system, keep=set()).constraints):
        raise InfeasibleSystemError("cannot sample from an infeasible system")
    known = {}
    for var in range(n - 1, -1, -1):
        rows = []
        for c in project(system, keep=set(range(var, n))).constraints:
            if c.expr.coeff(var):
                rest = sum(x * known[v] for v, x in c.expr.terms if v != var)
                rows.append((c.expr.coeff(var), c.rhs - rest, c.relation is Relation.LT))
        fiber = interval_of(rows)
        lo, hi = fiber.lo, fiber.hi
        if lo is not None and hi is not None:
            known[var] = lo if lo == hi else lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)
        elif lo is not None:
            known[var] = lo + rng.randint(1, 8)
        elif hi is not None:
            known[var] = hi - rng.randint(1, 8)
        else:
            known[var] = Fraction(rng.randint(-4, 4))
    return Point.of(known)
