"""Independent Fraction references for Gaussian substitution and the
Fourier pair step.

`lincert.gauss` substitutes and `lincert.fourier` combines pairs on integer
rows; the tests compare them, and the pipeline built on them, with the
textbook formulas on Fraction rows written out here, so the kernels are
never checked against themselves.
"""

from fractions import Fraction
from math import gcd, lcm

from lincert.core import Constraint, Provenance, Relation
from lincert.fourier import EliminationStep, ProducedRow


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
